"""Tests for the per-figure experiment runners (small-scale sanity runs)."""

import pytest

from repro.experiments.datasets import dataset_gt
from repro.experiments.runners import (
    run_baseline_cost,
    run_broadcast_efficiency,
    run_dataset_clustering,
    run_fig4,
    run_fig5,
    run_fig13,
    run_netpipe_reference,
)


class TestDatasetClusteringRunner:
    def test_gt_dataset_summary_fields(self):
        summary = run_dataset_clustering(
            dataset_gt(per_site=6), iterations=4, num_fragments=300, seed=2
        )
        assert summary["dataset"] == "G-T"
        assert summary["hosts"] == 12
        assert summary["found_clusters"] == summary["expected_clusters"] == 2
        assert summary["measured_nmi"] == pytest.approx(1.0)
        assert summary["measurement_time_s"] > 0


class TestFig4Runner:
    def test_local_traffic_dominates_remote(self):
        outcome = run_fig4(per_site=6, iterations=6, num_fragments=300, seed=2)
        assert outcome["local_total"] > 0
        assert outcome["remote_total"] > 0
        # The paper's headline observation: local-cluster peers receive several
        # times more fragments per peer than peers across the bottleneck.
        assert outcome["local_mean"] > 1.5 * outcome["remote_mean"]
        assert outcome["focus_host"].startswith("bordeaux.bordeplage")
        # Edge dictionaries partition the other hosts.
        assert len(outcome["local_edges"]) + len(outcome["remote_edges"]) == 11


class TestFig5Runner:
    def test_single_edge_variance_is_high(self):
        outcome = run_fig5(per_site=5, iterations=12, num_fragments=200, seed=3)
        assert len(outcome["history"]) == 12
        # High coefficient of variation (vs. near-zero for NetPIPE).
        assert outcome["coefficient_of_variation"] > 0.5
        assert outcome["zero_runs"] >= 0
        assert outcome["nonzero_max"] > outcome["nonzero_min"]


class TestFig13Runner:
    def test_curves_produced_for_requested_datasets(self):
        studies = run_fig13(
            datasets=["G-T"], per_site=6, iterations=5, num_fragments=300, seed=4
        )
        assert set(studies) == {"G-T"}
        study = studies["G-T"]
        assert study.iterations == 5
        assert study.final_nmi == pytest.approx(1.0)
        assert study.iterations_to_reach(0.99) <= 5


class TestEfficiencyRunners:
    def test_broadcast_efficiency_shapes(self):
        outcome = run_broadcast_efficiency(
            node_counts=(4, 8), num_fragments=200, sites=("grenoble", "toulouse")
        )
        assert len(outcome["durations_by_nodes"]) == 2
        # Roughly constant in node count (well below linear growth).
        assert outcome["node_scaling_ratio"] < 1.8
        # Roughly linear in the file size (doubling fragments ~doubles time).
        assert outcome["size_scaling_ratio"] > 1.5

    def test_baseline_cost_grows_faster_than_bittorrent(self):
        outcome = run_baseline_cost(
            node_counts=(4, 8), probe_size=4e6, num_fragments=150, iterations=2
        )
        rows = outcome["rows"]
        assert len(rows) == 2
        small, large = rows
        bt_growth = large["bittorrent_time_s"] / small["bittorrent_time_s"]
        pairwise_growth = large["pairwise_time_s"] / small["pairwise_time_s"]
        triplet_growth = large["triplet_time_s"] / small["triplet_time_s"]
        assert pairwise_growth > bt_growth
        assert triplet_growth > pairwise_growth
        assert large["triplet_probes"] > large["pairwise_probes"]

    def test_netpipe_reference_numbers(self):
        outcome = run_netpipe_reference(repeats=3)
        assert outcome["intra_cluster_mbps"] == pytest.approx(890.0, rel=0.05)
        assert outcome["inter_site_mbps"] < outcome["intra_cluster_mbps"]
        assert outcome["intra_cluster_std"] == pytest.approx(0.0, abs=1e-6)
