"""§II-C / §IV-A — NetPIPE reference bandwidths.

Paper: NetPIPE measures ≈890 Mb/s between two nodes of the same Ethernet
cluster and ≈787 Mb/s between Bordeaux and Toulouse, with a very dense
(low-variance) distribution — the counterpoint to the noisy BitTorrent metric.
"""

from benchmarks.conftest import report
from repro.experiments.runners import run_netpipe_reference


def test_netpipe_reference_bandwidths():
    outcome = run_netpipe_reference(repeats=5)

    report(
        "NetPIPE reference measurements",
        {
            "paper intra-cluster / inter-site": "890 / 787 Mb/s",
            "measured intra-cluster": f"{outcome['intra_cluster_mbps']:.0f} Mb/s",
            "measured inter-site": f"{outcome['inter_site_mbps']:.0f} Mb/s",
            "measured std (intra / inter)": f"{outcome['intra_cluster_std']:.2e} / {outcome['inter_site_std']:.2e}",
        },
    )

    assert abs(outcome["intra_cluster_mbps"] - 890.0) / 890.0 < 0.05
    # Inter-site bandwidth is lower than intra-cluster but the same order.
    assert outcome["inter_site_mbps"] < outcome["intra_cluster_mbps"]
    assert outcome["inter_site_mbps"] > 0.5 * outcome["intra_cluster_mbps"]
    # Negligible run-to-run variance, unlike the BitTorrent metric.
    assert outcome["intra_cluster_std"] < 1e-3
    assert outcome["inter_site_std"] < 1e-3
