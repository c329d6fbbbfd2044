"""Convergence of the clustering with the number of broadcast iterations (Fig. 13).

The paper's Fig. 13 plots, for each dataset, the NMI between the clustering
computed from the first ``k`` iterations and the ground truth, as ``k`` grows.
:func:`nmi_convergence` computes exactly that curve from a measurement
record, and :class:`ConvergenceStudy` adds the summary statistics quoted in
the text (iterations needed to reach / stay at a target NMI).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.clustering.nmi import overlapping_nmi
from repro.clustering.partition import Partition
from repro.graph.wgraph import WeightedGraph
from repro.tomography.measurement import MeasurementRecord
from repro.tomography.pipeline import prefix_clusterings


def nmi_convergence(
    record: MeasurementRecord,
    ground_truth: Partition,
    clusterer: Callable[[WeightedGraph], Partition],
) -> List[float]:
    """Overlapping NMI after 1, 2, ..., n aggregated iterations."""
    truth = ground_truth.restrict(record.hosts)
    return [
        overlapping_nmi(partition, truth)
        for _, _, partition in prefix_clusterings(record, clusterer)
    ]


@dataclass
class ConvergenceStudy:
    """Summary of an NMI-vs-iterations curve.

    Attributes
    ----------
    dataset:
        Name of the dataset (``"B"``, ``"B-T"``, ... as in Fig. 13).
    curve:
        NMI after each number of aggregated iterations.
    """

    dataset: str
    curve: List[float] = field(default_factory=list)

    @property
    def iterations(self) -> int:
        return len(self.curve)

    @property
    def final_nmi(self) -> float:
        if not self.curve:
            raise ValueError("empty convergence curve")
        return self.curve[-1]

    def iterations_to_reach(self, target: float) -> Optional[int]:
        """First iteration count whose NMI is at least ``target`` (1-based)."""
        for i, value in enumerate(self.curve, start=1):
            if value >= target - 1e-12:
                return i
        return None

    def iterations_to_converge(self, target: float = 0.999) -> Optional[int]:
        """First iteration count from which the NMI stays at/above ``target``."""
        stable_from: Optional[int] = None
        for i, value in enumerate(self.curve, start=1):
            if value >= target - 1e-12:
                if stable_from is None:
                    stable_from = i
            else:
                stable_from = None
        return stable_from

    def is_monotone_after(self, start: int = 1, tolerance: float = 0.15) -> bool:
        """True if the curve never drops by more than ``tolerance`` after ``start``."""
        values = self.curve[start - 1 :]
        return all(b >= a - tolerance for a, b in zip(values, values[1:]))

    @classmethod
    def from_record(
        cls,
        dataset: str,
        record: MeasurementRecord,
        ground_truth: Partition,
        clusterer: Callable[[WeightedGraph], Partition],
    ) -> "ConvergenceStudy":
        return cls(dataset=dataset, curve=nmi_convergence(record, ground_truth, clusterer))
