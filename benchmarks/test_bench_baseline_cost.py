"""§II-B — measurement cost of classical saturation tomography vs BitTorrent.

Paper: the pairwise procedure of [13] takes about an hour for only 20 nodes
(O(N²) probes), the triplet procedure of [12] is O(N³), while a handful of
BitTorrent broadcasts measures the whole network in a few minutes regardless
of the node count.
"""

from benchmarks.conftest import SEED, report
from repro.experiments.runners import run_baseline_cost


def test_baseline_measurement_cost_scales_worse_than_bittorrent():
    outcome = run_baseline_cost(
        node_counts=(6, 10, 14),
        probe_size=16e6,
        num_fragments=300,
        iterations=4,
        seed=SEED,
    )
    rows = outcome["rows"]

    table = {}
    for row in rows:
        table[f"N={row['nodes']}"] = (
            f"BT {row['bittorrent_time_s']:.1f}s | pairwise {row['pairwise_time_s']:.1f}s "
            f"({row['pairwise_probes']} probes) | triplet {row['triplet_time_s']:.1f}s "
            f"({row['triplet_probes']} probes)"
        )
    table["paper"] = "pairwise ≈ 1 h @ 20 nodes; BitTorrent a few minutes"
    report("§II-B — measurement cost comparison", table)

    small, mid, large = rows
    bt_growth = large["bittorrent_time_s"] / small["bittorrent_time_s"]
    pairwise_growth = large["pairwise_time_s"] / small["pairwise_time_s"]
    triplet_growth = large["triplet_time_s"] / small["triplet_time_s"]

    # Shape: the broadcast campaign cost is roughly flat in N, the baselines
    # grow polynomially, and the triplet method grows fastest.
    assert bt_growth < 2.0
    assert pairwise_growth > 1.5 * bt_growth
    assert triplet_growth > pairwise_growth
    # The baselines are already slower in absolute simulated time at N=14.
    assert large["pairwise_time_s"] > large["bittorrent_time_s"]
    assert large["triplet_time_s"] > large["pairwise_time_s"]
