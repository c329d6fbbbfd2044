"""§II-B — efficiency of the BitTorrent broadcast measurement.

Paper: broadcasting the 239 MB file takes about 20 s for 32, 64 and 128 nodes,
even across 4 sites — i.e. the completion time is roughly constant in the
number of nodes and linear (O(M)) in the message size.
"""

from benchmarks.conftest import SEED, report
from repro.experiments.runners import run_broadcast_efficiency


def test_broadcast_time_constant_in_nodes_linear_in_size():
    outcome = run_broadcast_efficiency(
        node_counts=(8, 16, 32),
        num_fragments=400,
        sites=("bordeaux", "grenoble", "toulouse", "lyon"),
        seed=SEED,
    )

    report(
        "§II-B — broadcast efficiency",
        {
            "paper": "239 MB broadcast ≈ 20 s for 32/64/128 nodes over 4 sites",
            "measured durations by node count (s)": {
                k: round(v, 2) for k, v in outcome["durations_by_nodes"].items()
            },
            "measured durations by fragments (s)": {
                k: round(v, 2) for k, v in outcome["durations_by_fragments"].items()
            },
            "largest/smallest swarm duration ratio": f"{outcome['node_scaling_ratio']:.2f}",
            "4x-size duration ratio": f"{outcome['size_scaling_ratio']:.2f}",
            "control steps by node count": outcome["control_steps_by_nodes"],
            "stepping mode": outcome["stepping"],
        },
    )

    # Roughly constant in node count: quadrupling the swarm changes the
    # duration by far less than 4x.
    assert outcome["node_scaling_ratio"] < 2.0
    # Roughly linear in message size: 4x fragments -> between 2x and 8x time.
    assert 2.0 <= outcome["size_scaling_ratio"] <= 8.0
