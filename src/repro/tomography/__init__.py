"""The paper's primary contribution: BitTorrent-based bandwidth tomography.

* :mod:`repro.tomography.metric` — the "received fragments per peer" metric
  (Eq. 1–2) and its aggregation over iterations;
* :mod:`repro.tomography.measurement` — running the measurement phase
  (repeated synchronized broadcasts) on a topology;
* :mod:`repro.tomography.pipeline` — the end-to-end two-phase method:
  measure, aggregate, cluster, evaluate against ground truth;
* :mod:`repro.tomography.netpipe` — NetPIPE-style point-to-point reference
  probes;
* :mod:`repro.tomography.baselines` — classical saturation tomography
  (pairwise and triplet interference probing) used as cost/quality baselines;
* :mod:`repro.tomography.interference` — robustness of the recovery when the
  measured broadcasts share the cluster with other tenants (multi-tenant
  workloads: concurrent broadcasts, cross traffic, churn, capacity drift).
"""

from repro.tomography.metric import EdgeMetric, aggregate_mean, metric_graph
from repro.tomography.measurement import MeasurementCampaign, MeasurementRecord
from repro.tomography.pipeline import TomographyPipeline, TomographyResult
from repro.tomography.netpipe import NetPipeProbe, NetPipeResult
from repro.tomography.bottleneck import BottleneckReport, describe_bottlenecks, find_bottleneck_links
from repro.tomography.baselines import (
    BaselineResult,
    PairwiseSaturationTomography,
    TripletSaturationTomography,
)

__all__ = [
    "EdgeMetric",
    "aggregate_mean",
    "metric_graph",
    "MeasurementCampaign",
    "MeasurementRecord",
    "TomographyPipeline",
    "TomographyResult",
    "NetPipeProbe",
    "NetPipeResult",
    "BottleneckReport",
    "find_bottleneck_links",
    "describe_bottlenecks",
    "BaselineResult",
    "PairwiseSaturationTomography",
    "TripletSaturationTomography",
]
