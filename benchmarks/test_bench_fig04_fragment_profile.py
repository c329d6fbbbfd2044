"""Fig. 4 — metric values for all edges of a fixed node, local vs remote.

Paper: in a 64-node single-site broadcast (36 iterations), the fixed node
exchanged 22 533 fragments with local-cluster peers and 6 337 with remote
peers — local edges are several times heavier per peer.
"""

from benchmarks.conftest import ITERATIONS, NUM_FRAGMENTS, SEED, report
from repro.analysis.visualize import render_fig4_bars
from repro.experiments.runners import run_fig4


def test_fig4_local_edges_dominate(bench_once):
    outcome = bench_once(
        run_fig4,
        per_site=8,
        iterations=ITERATIONS,
        num_fragments=NUM_FRAGMENTS,
        seed=SEED,
    )
    local_mean = outcome["local_mean"]
    remote_mean = outcome["remote_mean"]
    paper_ratio = (22533 / 31) / (6337 / 32)
    measured_ratio = local_mean / remote_mean

    report(
        "Fig. 4 — fragments exchanged by a fixed node",
        {
            "focus host": outcome["focus_host"],
            "paper local/remote totals": "22533 / 6337 (36 iters, 64 nodes)",
            "measured local/remote totals": f"{outcome['local_total']:.0f} / {outcome['remote_total']:.0f}",
            "paper per-peer ratio": f"{paper_ratio:.2f}",
            "measured per-peer ratio": f"{measured_ratio:.2f}",
        },
    )
    print(render_fig4_bars(outcome["local_edges"], outcome["remote_edges"]))

    # Shape: local-cluster edges carry clearly more fragments per peer.
    assert measured_ratio > 1.5
    assert outcome["local_total"] > outcome["remote_total"]
