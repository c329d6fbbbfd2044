"""Bit-for-bit seed-replay regression tests for the vectorized swarm.

The golden fingerprints below were generated with the original scalar
implementation (dict/set swarm loop + scalar allocator) before the
vectorized refactor.  A broadcast with the same topology, torrent and RNG
seed must reproduce the *identical* fragment matrix: the refactor is a pure
performance change, and any drift in candidate ordering, rate arithmetic
tolerances or random-stream consumption shows up here immediately.

The goldens are versioned per control-loop stepping mode (``GOLDENS`` maps
``stepping -> scenario -> sha256``), as the ROADMAP's event-driven item
required.  The event-stepped loop is *anchored* — byte state between control
points is an analytic function of the last transition, never a per-tick
accumulation — so both modes consume the random stream identically and the
two golden columns are the same values: the event refactor preserved the
original scalar fingerprints exactly.  If a future change has to break one
column, re-pin it here and record why in docs/simulation.md.

The three scenarios cover the distinct control paths: a multi-site WAN
broadcast (TCP-window rate caps), a single-site broadcast across the
Bordeaux bottleneck, and a long broadcast with frequent rechokes so the
tit-for-tat choker, optimistic rotation and idle-slot filling all consume
the random stream.
"""

import hashlib

import numpy as np
import pytest

from repro.bittorrent.swarm import STEPPING_MODES, BitTorrentBroadcast, SwarmConfig
from repro.network.grid5000 import (
    build_bordeaux_site,
    build_multi_site,
    default_cluster_of,
)

#: Pinned sha256 fingerprints, one column per stepping mode.
GOLDENS = {
    "fixed": {
        "multi-site": (
            "710d64c7a3d173b303ca281719138a6dd4b4b8120c08dc67d4be8343d5af4e76"
        ),
        "bordeaux": (
            "5bb186984a0dab848081eae4ed26584934e6540c61e370a1c375f013142233eb"
        ),
        "rechoke-heavy": (
            "86fd2346fdd63e59d6449fa8d589be80e71702c28907d6b7c6c6c4c86aa6167c"
        ),
    },
    "event": {
        "multi-site": (
            "710d64c7a3d173b303ca281719138a6dd4b4b8120c08dc67d4be8343d5af4e76"
        ),
        "bordeaux": (
            "5bb186984a0dab848081eae4ed26584934e6540c61e370a1c375f013142233eb"
        ),
        "rechoke-heavy": (
            "86fd2346fdd63e59d6449fa8d589be80e71702c28907d6b7c6c6c4c86aa6167c"
        ),
    },
}


def broadcast_fingerprint(topology, num_fragments, seed, **config_kwargs):
    """Run one broadcast and hash its labels + integer fragment matrix."""
    from repro.bittorrent.torrent import TorrentMeta

    meta = TorrentMeta(
        name="golden", fragment_size=16384, num_fragments=num_fragments
    )
    config = SwarmConfig(torrent=meta, **config_kwargs)
    broadcast = BitTorrentBroadcast(topology, config)
    result = broadcast.run(rng=np.random.default_rng(seed))
    counts = result.fragments.counts.astype(np.int64)
    digest = hashlib.sha256()
    digest.update(("|".join(result.fragments.labels)).encode())
    digest.update(counts.tobytes())
    return digest.hexdigest(), result


@pytest.mark.parametrize("stepping", STEPPING_MODES)
def test_multi_site_broadcast_replays_scalar_implementation(stepping):
    topology = build_multi_site(
        {site: {default_cluster_of(site): 4} for site in ("bordeaux", "grenoble")}
    )
    fingerprint, result = broadcast_fingerprint(
        topology, 80, seed=73, stepping=stepping
    )
    assert fingerprint == GOLDENS[stepping]["multi-site"]
    assert result.stepping == stepping
    assert result.fragments.total_fragments() == 560.0
    assert result.distinct_edges == 7
    assert result.duration == pytest.approx(0.2)


@pytest.mark.parametrize("stepping", STEPPING_MODES)
def test_bordeaux_bottleneck_broadcast_replays_scalar_implementation(stepping):
    topology = build_bordeaux_site(bordeplage=5, bordereau=4, borderline=2)
    fingerprint, result = broadcast_fingerprint(
        topology, 120, seed=2012, stepping=stepping
    )
    assert fingerprint == GOLDENS[stepping]["bordeaux"]
    assert result.fragments.total_fragments() == 1200.0
    assert result.distinct_edges == 13


@pytest.mark.parametrize("stepping", STEPPING_MODES)
def test_rechoke_heavy_broadcast_replays_scalar_implementation(stepping):
    """Short rechoke interval: tit-for-tat and optimistic slots churn hard."""
    topology = build_bordeaux_site(bordeplage=5, bordereau=4, borderline=2)
    fingerprint, result = broadcast_fingerprint(
        topology, 2000, seed=99, rechoke_interval=0.3, optimistic_every=2,
        stepping=stepping,
    )
    assert fingerprint == GOLDENS[stepping]["rechoke-heavy"]
    assert result.fragments.total_fragments() == 20000.0
    assert result.distinct_edges == 51


def test_golden_columns_coincide():
    """The anchored event refactor did not fork the measurement semantics:
    the per-mode golden columns are pinned to the same fingerprints."""
    assert GOLDENS["fixed"] == GOLDENS["event"]


def test_same_seed_is_deterministic_across_runs():
    """Two runs from the same seed produce identical matrices."""
    topology = build_bordeaux_site(bordeplage=3, bordereau=3, borderline=2)
    first, _ = broadcast_fingerprint(topology, 60, seed=5)
    second, _ = broadcast_fingerprint(topology, 60, seed=5)
    assert first == second


def test_interest_bookkeeping_modes_agree(monkeypatch):
    """The per-step matmul and the incremental interest updates are the same
    computation; forcing the incremental path must not change the result."""
    import repro.bittorrent.swarm as swarm_module

    topology = build_bordeaux_site(bordeplage=3, bordereau=3, borderline=2)
    baseline, _ = broadcast_fingerprint(topology, 60, seed=11)

    monkeypatch.setattr(swarm_module, "MATMUL_INTEREST_LIMIT", 0)
    incremental, _ = broadcast_fingerprint(topology, 60, seed=11)
    assert incremental == baseline


# ---------------------------------------------------------------------- #
# multi-tenant workload replay (PR 4)
# ---------------------------------------------------------------------- #
def workload_broadcast_fingerprint(topology, num_fragments, seed, **config_kwargs):
    """The GOLDENS fingerprint computed through the one-actor workload path."""
    from repro.bittorrent.torrent import TorrentMeta
    from repro.workloads import BroadcastActor, WorkloadEngine

    meta = TorrentMeta(
        name="golden", fragment_size=16384, num_fragments=num_fragments
    )
    config = SwarmConfig(torrent=meta, **config_kwargs)
    engine = WorkloadEngine(topology)
    primary = engine.add(
        BroadcastActor("primary", config, rng=np.random.default_rng(seed))
    )
    engine.run()
    result = primary.result
    counts = result.fragments.counts.astype(np.int64)
    digest = hashlib.sha256()
    digest.update(("|".join(result.fragments.labels)).encode())
    digest.update(counts.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("stepping", STEPPING_MODES)
def test_one_actor_workload_replays_the_single_broadcast_goldens(stepping):
    """The standalone loop is now the degenerate one-actor workload: driving
    a broadcast through the shared workload engine (its simulator agenda and
    shared fluid network) must reproduce the pinned scalar-era fingerprints
    bit for bit."""
    topology = build_multi_site(
        {site: {default_cluster_of(site): 4} for site in ("bordeaux", "grenoble")}
    )
    fingerprint = workload_broadcast_fingerprint(
        topology, 80, seed=73, stepping=stepping
    )
    assert fingerprint == GOLDENS[stepping]["multi-site"]

    topology = build_bordeaux_site(bordeplage=5, bordereau=4, borderline=2)
    fingerprint = workload_broadcast_fingerprint(
        topology, 120, seed=2012, stepping=stepping
    )
    assert fingerprint == GOLDENS[stepping]["bordeaux"]

    fingerprint = workload_broadcast_fingerprint(
        topology, 2000, seed=99, rechoke_interval=0.3, optimistic_every=2,
        stepping=stepping,
    )
    assert fingerprint == GOLDENS[stepping]["rechoke-heavy"]


#: Pinned campaign fingerprints for one scenario per interference family
#: (G-T at per_site=3, 150 fragments, 2 iterations, seed 2012).  Both
#: stepping modes must reproduce the same hashes: the interference wakeups
#: keep the event mode exact in a changing network.
INTERFERENCE_GOLDENS = {
    "rival": "39e14ea1a531976b25add05b51a6a1c74399a005174e0bbef025966bb152810f",
    "cross": "3509570ef7bc58ce111bd3d86360b397d2249941814fcf778c4d0ac316488b0c",
    "churn": "7fca60aa6380075fe2058a15342f015bcea1320b96d607b17dddb2147fd59146",
}


def interference_workload(family):
    from repro.workloads import (
        churn_workload,
        cross_traffic_workload,
        rival_broadcast_workload,
    )

    return {
        "rival": lambda: rival_broadcast_workload(rivals=1, stagger=0.25),
        "cross": lambda: cross_traffic_workload(intensity=0.75, sources=2),
        "churn": lambda: churn_workload(churn_rate=2.0),
    }[family]()


def campaign_fingerprint(stepping, workload=None, faults=None):
    """sha256 over a two-iteration G-T campaign (per_site=3, 150 fragments,
    seed 2012) — the shared fingerprint of the interference/fault goldens."""
    from repro.experiments.datasets import dataset
    from repro.tomography.measurement import MeasurementCampaign
    from repro.tomography.pipeline import default_swarm_config

    ds = dataset("G-T", per_site=3)
    config = default_swarm_config(150, stepping=stepping)
    record = MeasurementCampaign(
        ds.topology,
        config,
        hosts=ds.hosts,
        seed=2012,
        workload=workload,
        faults=faults,
    ).run(2)
    digest = hashlib.sha256()
    for result in record.results:
        digest.update(("|".join(result.fragments.labels)).encode())
        digest.update(result.fragments.counts.astype(np.int64).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("stepping", STEPPING_MODES)
@pytest.mark.parametrize("family", sorted(INTERFERENCE_GOLDENS))
def test_interference_campaigns_replay_their_goldens(family, stepping):
    """Multi-tenant campaigns replay bit-for-bit from their seed, in both
    stepping modes: the per-actor RNG streams are derived statelessly from
    (seed, "workload", iteration, label) and the shared-clock interleaving
    is deterministic."""
    fingerprint = campaign_fingerprint(
        stepping, workload=interference_workload(family)
    )
    assert fingerprint == INTERFERENCE_GOLDENS[family]


# ---------------------------------------------------------------------- #
# fault-injection replay (PR 6)
# ---------------------------------------------------------------------- #
#: Pinned campaign fingerprints under injected faults (same G-T campaign as
#: INTERFERENCE_GOLDENS).  Fault actors draw from stateless
#: (seed, "fault", iteration, label) streams, so campaigns under failure
#: replay bit-for-bit in both stepping modes.
FAULT_GOLDENS = {
    "link-failure": (
        "3112f50bbb650b6f327c05d2a058ff8f16189aae1a8a1c52a8f7fa48950abbd1"
    ),
    "blackout": (
        "40e68ce9c94ee2433465b1a142b1d808817ef47a5b24f3bc7380371fcf5a0324"
    ),
    "chaos": (
        "ead717e92ef73e49b6b9135f9fd31fc0d7667c4621fe8a9c53c1d14be1b0d5ac"
    ),
}


def fault_plan(family):
    from repro.faults import blackout_plan, chaos_plan, link_failure_plan

    return {
        "link-failure": lambda: link_failure_plan(intensity=1.0),
        "blackout": lambda: blackout_plan(from_iteration=1),
        "chaos": lambda: chaos_plan(intensity=1.0),
    }[family]()


@pytest.mark.parametrize("stepping", STEPPING_MODES)
@pytest.mark.parametrize("family", sorted(FAULT_GOLDENS))
def test_fault_campaigns_replay_their_goldens(family, stepping):
    """Campaigns under injected failure replay bit-for-bit from their seed,
    in both stepping modes."""
    fingerprint = campaign_fingerprint(stepping, faults=fault_plan(family))
    assert fingerprint == FAULT_GOLDENS[family]


# ---------------------------------------------------------------------- #
# telemetry neutrality (PR 9)
# ---------------------------------------------------------------------- #
@pytest.fixture
def full_tracing(tmp_path):
    """Enable full-detail tracing for the test, then restore the no-op state.

    Full detail is deliberately the level under test: it emits the
    per-control-step records (jumps, conversion passes, fluid transitions,
    workload dispatches), so any accidental RNG draw or clock perturbation
    in the hottest instrumentation path would surface here.
    """
    from repro.observability.tracer import TRACER

    trace_path = tmp_path / "replay.jsonl"
    TRACER.configure(str(trace_path), detail="full")
    yield trace_path
    TRACER.close()


@pytest.mark.parametrize("stepping", STEPPING_MODES)
def test_tracing_preserves_the_classic_goldens(full_tracing, stepping):
    """Telemetry only *reads* state: with full tracing on, the broadcast
    reproduces its pinned fingerprint bit for bit."""
    topology = build_multi_site(
        {site: {default_cluster_of(site): 4} for site in ("bordeaux", "grenoble")}
    )
    fingerprint, _ = broadcast_fingerprint(topology, 80, seed=73, stepping=stepping)
    assert fingerprint == GOLDENS[stepping]["multi-site"]

    # The trace actually recorded the work it watched.
    from repro.observability.tracer import TRACER

    TRACER.flush()
    lines = full_tracing.read_text().splitlines()
    assert len(lines) > 1


@pytest.mark.parametrize("stepping", STEPPING_MODES)
def test_tracing_preserves_the_workload_and_fault_goldens(full_tracing, stepping):
    """Full tracing across the workload engine, fault actors, executors and
    pipeline leaves every campaign family's fingerprint untouched."""
    topology = build_multi_site(
        {site: {default_cluster_of(site): 4} for site in ("bordeaux", "grenoble")}
    )
    fingerprint = workload_broadcast_fingerprint(
        topology, 80, seed=73, stepping=stepping
    )
    assert fingerprint == GOLDENS[stepping]["multi-site"]

    fingerprint = campaign_fingerprint(
        stepping, workload=interference_workload("churn")
    )
    assert fingerprint == INTERFERENCE_GOLDENS["churn"]

    fingerprint = campaign_fingerprint(stepping, faults=fault_plan("chaos"))
    assert fingerprint == FAULT_GOLDENS["chaos"]

    # Fault events made it into the trace, stamped on the simulation clock.
    import json

    from repro.observability.tracer import TRACER

    TRACER.flush()
    records = [
        json.loads(line) for line in full_tracing.read_text().splitlines()
    ]
    fault_events = [
        r for r in records if r.get("name", "").startswith("fault.")
    ]
    assert fault_events
    assert all("sim_ts" in r for r in fault_events)


@pytest.mark.parametrize("stepping", STEPPING_MODES)
def test_empty_fault_plan_replays_the_faultless_goldens(stepping):
    """The acceptance gate of the fault subsystem: an *empty* FaultPlan is a
    bitwise no-op — the campaign fingerprint equals the plain campaign's,
    and the workload path still reproduces the scalar-era broadcast
    goldens."""
    from repro.faults import NO_FAULTS

    assert campaign_fingerprint(stepping) == campaign_fingerprint(
        stepping, faults=NO_FAULTS
    )

    topology = build_multi_site(
        {site: {default_cluster_of(site): 4} for site in ("bordeaux", "grenoble")}
    )
    fingerprint = workload_broadcast_fingerprint(
        topology, 80, seed=73, stepping=stepping
    )
    assert fingerprint == GOLDENS[stepping]["multi-site"]
