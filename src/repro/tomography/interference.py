"""Interference-robustness measurement: tomography under shared-cluster load.

The paper's campaigns measure in an idle network; the interference
scenarios ask the question its premise raises — does the fragment metric
still recover the planted bandwidth structure when the measured broadcasts
compete with other tenants?  They run the standard campaign study
(:func:`repro.experiments.runners.run_dataset_clustering`) with every
broadcast embedded in a :class:`~repro.workloads.WorkloadSpec` (rival
broadcasts, Poisson/on-off cross traffic, peer churn, link-capacity drift);
:func:`summarize_workload_stats` totals the interference that was actually
injected for the summary.

Each scenario family documents a *noise threshold*: the overlapping-NMI
floor the recovery is expected to stay above at the family's default
interference intensity (see ``docs/workloads.md`` for the measured curves).
The summary carries both the threshold and the measurement, so sweeps can
chart exactly where recovery degrades.
"""

from __future__ import annotations

from typing import Dict, List


def summarize_workload_stats(stats_per_iteration: List[List[Dict]]) -> Dict[str, object]:
    """Aggregate per-iteration actor stats into campaign-level totals.

    Fault-injector rows (``fault: True``, see :mod:`repro.faults.actors`)
    aggregate alongside the workload rows so a summary shows both the
    interference *and* the failures the measurement survived.
    """
    totals = {
        "background_flows": 0,
        "background_bytes_offered": 0.0,
        "background_bytes_delivered": 0.0,
        "churn_leaves": 0,
        "churn_rejoins": 0,
        "capacity_changes": 0,
        "rival_broadcasts": 0,
        "link_failures": 0,
        "link_repairs": 0,
        "link_downtime_s": 0.0,
        "route_flaps": 0,
        "tracker_outages": 0,
        "tenant_arrivals": 0,
        "tenant_departures": 0,
        "announce_retries": 0,
        "announce_failures": 0,
    }
    for iteration in stats_per_iteration:
        for row in iteration:
            kind = row.get("kind")
            if kind in ("poisson", "onoff", "bulk"):
                totals["background_flows"] += int(row.get("flows_started", 0))
                totals["background_bytes_offered"] += float(row.get("bytes_offered", 0.0))
                totals["background_bytes_delivered"] += float(
                    row.get("bytes_delivered", 0.0)
                )
            elif kind == "churn":
                totals["churn_leaves"] += int(row.get("leaves", 0))
                totals["churn_rejoins"] += int(row.get("rejoins", 0))
                totals["announce_retries"] += int(row.get("announce_retries", 0))
                totals["announce_failures"] += int(row.get("announce_failures", 0))
            elif kind == "drift":
                totals["capacity_changes"] += int(row.get("changes", 0))
            elif kind == "broadcast" and row.get("actor") != "primary":
                totals["rival_broadcasts"] += 1
            elif kind == "link-failure":
                totals["link_failures"] += int(row.get("failures", 0))
                totals["link_repairs"] += int(row.get("repairs", 0))
                totals["link_downtime_s"] += float(row.get("downtime", 0.0))
            elif kind == "route-flap":
                totals["route_flaps"] += int(row.get("failures", 0))
            elif kind == "tracker-outage":
                totals["tracker_outages"] += int(row.get("outages", 0))
            elif kind == "tenant-cycle":
                totals["tenant_arrivals"] += int(row.get("arrivals", 0))
                totals["tenant_departures"] += int(row.get("departures", 0))
                totals["announce_retries"] += int(row.get("announce_retries", 0))
                totals["announce_failures"] += int(row.get("announce_failures", 0))
    return totals
