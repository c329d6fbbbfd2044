"""Extension (§I motivation, §V future work) — topology-aware collectives.

The paper motivates tomography by topology-aware collective communication:
knowing the logical clusters lets a library schedule broadcasts/all-to-alls so
that bulk data crosses each bottleneck once.  This benchmark closes the loop:
it recovers the clusters with the tomography pipeline on the Bordeaux dataset
and compares cluster-aware collective schedules against topology-agnostic ones
on the same simulated network.
"""

from benchmarks.conftest import NUM_FRAGMENTS, SEED, report
from repro.applications.collectives import (
    cluster_aware_allgather,
    cluster_aware_broadcast,
    flat_broadcast,
    naive_allgather,
)
from repro.experiments.datasets import dataset_b
from repro.tomography.pipeline import TomographyPipeline, default_swarm_config


def test_recovered_clusters_speed_up_collectives():
    ds = dataset_b(bordeplage=8, bordereau=6, borderline=2)

    def tomography():
        pipeline = TomographyPipeline(
            ds.topology,
            hosts=ds.hosts,
            ground_truth=ds.ground_truth,
            config=default_swarm_config(NUM_FRAGMENTS),
            seed=SEED,
        )
        return pipeline.run(iterations=6, track_convergence=False)

    result = tomography()
    partition = result.partition

    message = 50e6  # 50 MB broadcast payload / allgather block
    root = ds.hosts[0]
    flat_bcast = flat_broadcast(ds.topology, ds.hosts, root, message)
    aware_bcast = cluster_aware_broadcast(ds.topology, ds.hosts, root, message, partition)
    naive_ag = naive_allgather(ds.topology, ds.hosts, 5e6)
    aware_ag = cluster_aware_allgather(ds.topology, ds.hosts, 5e6, partition)

    bcast_speedup = flat_bcast.completion_time / aware_bcast.completion_time
    ag_speedup = naive_ag.completion_time / aware_ag.completion_time

    report(
        "Extension — topology-aware collectives using recovered clusters",
        {
            "tomography NMI (clusters used for scheduling)": f"{result.nmi:.2f}",
            "broadcast flat / cluster-aware (s)": f"{flat_bcast.completion_time:.2f} / {aware_bcast.completion_time:.2f}",
            "broadcast speedup": f"{bcast_speedup:.2f}x",
            "allgather flat / cluster-aware (s)": f"{naive_ag.completion_time:.2f} / {aware_ag.completion_time:.2f}",
            "allgather speedup": f"{ag_speedup:.2f}x",
            "paper": "topology-aware collectives 'substantially outperform topology-agnostic methods' (§I)",
        },
    )

    # The clusters recovered by the tomography are good enough to produce a
    # real speedup for both collectives on the bottlenecked topology.
    assert result.nmi >= 0.99
    assert bcast_speedup > 1.3
    assert ag_speedup > 1.1
