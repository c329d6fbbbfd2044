"""Ablation (§II-C) — protocol limits: upload slots and peer-set size.

The paper attributes the sparsity and randomness of single-run measurements to
two protocol limits: at most 4 parallel uploads and at most 35 known peers.
This ablation sweeps both limits and measures how many distinct edges a single
broadcast samples — more slots / larger peer sets cover more edges per run.
"""

import numpy as np

from benchmarks.conftest import SEED, report
from repro.bittorrent.swarm import BitTorrentBroadcast
from repro.network.grid5000 import build_flat_site
from repro.tomography.pipeline import default_swarm_config


def run_sweep():
    topology = build_flat_site("grenoble", 24)
    total_pairs = 24 * 23 // 2
    outcomes = {}
    for upload_slots, max_peers in [(2, 35), (4, 35), (8, 35), (4, 6), (4, 12)]:
        config = default_swarm_config(300, upload_slots=upload_slots, max_peers=max_peers)
        broadcast = BitTorrentBroadcast(topology, config)
        result = broadcast.run(rng=np.random.default_rng(SEED))
        outcomes[(upload_slots, max_peers)] = result.distinct_edges / total_pairs
    return outcomes


def test_ablation_protocol_limits_control_edge_coverage():
    outcomes = run_sweep()

    report(
        "Ablation — upload slots / peer-set size vs edge coverage per broadcast",
        {
            f"slots={slots}, peers={peers}": f"{coverage:.2%} of pairs sampled"
            for (slots, peers), coverage in outcomes.items()
        },
    )

    # More upload slots -> a single broadcast samples more edges.
    assert outcomes[(8, 35)] > outcomes[(2, 35)]
    # A smaller peer set bounds the reachable edges.
    assert outcomes[(4, 6)] < outcomes[(4, 35)]
    # No single run covers every pair (why the paper aggregates iterations).
    assert all(coverage < 1.0 for coverage in outcomes.values())
