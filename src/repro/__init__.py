"""repro — reproduction of Dichev, Reid & Lastovetsky (SC 2012).

*Efficient and reliable network tomography in heterogeneous networks using
BitTorrent broadcasts and clustering algorithms.*

The package provides:

* :mod:`repro.network` — a flow-level network simulator with Grid'5000-like
  topologies (the testbed substitute);
* :mod:`repro.bittorrent` — a synchronized, instrumented BitTorrent broadcast
  simulator (the measurement substrate);
* :mod:`repro.tomography` — the paper's contribution: the fragment metric,
  measurement campaigns, the end-to-end pipeline, NetPIPE probes and the
  classical saturation-tomography baselines;
* :mod:`repro.clustering` — Louvain modularity clustering, Infomap, and NMI
  evaluation measures;
* :mod:`repro.analysis` — layouts, convergence curves and rendering;
* :mod:`repro.experiments` — the paper's named datasets and per-figure
  runners;
* :mod:`repro.scenarios` — the declarative scenario registry and the
  process-pool campaign executor behind ``python -m repro run <scenario>``.

Quickstart
----------
>>> from repro.experiments import dataset
>>> from repro.tomography.pipeline import TomographyPipeline, default_swarm_config
>>> ds = dataset("G-T", per_site=6)
>>> pipeline = TomographyPipeline(ds.topology, hosts=ds.hosts,
...                               ground_truth=ds.ground_truth,
...                               config=default_swarm_config(300), seed=1)
>>> result = pipeline.run(iterations=4)
>>> result.num_clusters
2
"""

from repro.tomography.pipeline import TomographyPipeline, TomographyResult, default_swarm_config
from repro.tomography.measurement import MeasurementCampaign
from repro.tomography.metric import EdgeMetric, aggregate_mean, metric_graph
from repro.bittorrent.swarm import BitTorrentBroadcast, SwarmConfig
from repro.bittorrent.torrent import TorrentMeta
from repro.clustering.louvain import louvain
from repro.clustering.nmi import normalized_mutual_information, overlapping_nmi
from repro.clustering.partition import Partition
from repro.graph.wgraph import WeightedGraph
from repro.network.grid5000 import Grid5000Builder, build_bordeaux_site, build_flat_site, build_multi_site
from repro.network.topology import Topology
from repro.scenarios import (
    ProcessPoolExecutor,
    ScenarioSpec,
    all_scenarios,
    get_scenario,
    scenario_names,
)

__version__ = "1.0.0"

__all__ = [
    "TomographyPipeline",
    "TomographyResult",
    "default_swarm_config",
    "MeasurementCampaign",
    "EdgeMetric",
    "aggregate_mean",
    "metric_graph",
    "BitTorrentBroadcast",
    "SwarmConfig",
    "TorrentMeta",
    "louvain",
    "normalized_mutual_information",
    "overlapping_nmi",
    "Partition",
    "WeightedGraph",
    "Grid5000Builder",
    "build_bordeaux_site",
    "build_flat_site",
    "build_multi_site",
    "Topology",
    "ProcessPoolExecutor",
    "ScenarioSpec",
    "all_scenarios",
    "get_scenario",
    "scenario_names",
    "__version__",
]
