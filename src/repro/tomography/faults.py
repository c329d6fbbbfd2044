"""Fault-robustness measurement: tomography under injected failure.

The interference studies ask whether the fragment metric survives *load*;
this module asks whether it survives *failure* — and how fast it notices
one.  Any campaign run under a non-empty fault plan (a
:class:`~repro.workloads.spec.WorkloadSpec` of fault injectors, see
:mod:`repro.faults`; :func:`repro.experiments.runners
.run_dataset_clustering`) reports, via
:func:`fault_verdicts`, the study's two headline metrics: **time to
detect** a failed bottleneck link and **time to localize** it
(:mod:`repro.tomography.localization`).

Detection is duration-based, which is exactly the signal a production
tomography service has for free: a persistent capacity collapse on a
shared link stretches the measured broadcasts.  The detector is *online*
and *windowed* — each post-onset duration is compared against a rolling
median of the last :data:`DETECT_WINDOW` healthy samples plus a MAD
guard band, and samples that pass are absorbed into the healthy history.
A static pre-onset median would mis-fire the moment the baseline drifts
(capacity drift, slow load growth); the rolling baseline tracks the
drift and still trips on a genuine spike.  ``time_to_detect_s`` charges
the detector for every simulated second of measurement between the
failure's onset iteration and the detection (inclusive) — the cost of
noticing, in measurement time.

For plans whose failure *relocates* mid-campaign (``migrating_plan``),
:func:`detect_epochs` re-runs the verdict per failure epoch against the
pre-first-onset healthy history, and :func:`fault_verdicts` reports the
merged per-epoch detection + localization verdicts under ``epochs``.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Sequence

from repro.tomography.localization import localize_epochs
from repro.workloads.spec import WorkloadSpec, expected_broadcast_duration

#: Default duration-spike ratio that counts as "failure detected".
DETECT_FACTOR = 1.25

#: Healthy samples the rolling-median baseline looks back over.
DETECT_WINDOW = 8

#: MAD multiples added to the spike threshold as a noise guard band.
MAD_FACTOR = 3.0


def fault_onset_iteration(plan: WorkloadSpec) -> int:
    """First campaign iteration any of the plan's faults is active in."""
    if not plan.actors:
        return 0
    return min(
        int(spec.param_dict().get("from_iteration", 0)) for spec in plan.actors
    )


def fault_epoch_onsets(plan: WorkloadSpec) -> List[int]:
    """Distinct fault-onset iterations, sorted — the plan's failure epochs.

    A plan whose injectors all start together has one epoch; a migrating
    plan (per-epoch ``from_iteration`` scoping) has several, and each is
    detected and localized independently.
    """
    if not plan.actors:
        return []
    return sorted(
        {int(s.param_dict().get("from_iteration", 0)) for s in plan.actors}
    )


def detect_failure(
    durations: Sequence[Optional[float]],
    onset: int,
    expected_duration: float,
    detect_factor: float = DETECT_FACTOR,
    window: int = DETECT_WINDOW,
    mad_factor: float = MAD_FACTOR,
) -> Dict[str, object]:
    """Online duration-spike failure detection over a campaign's iterations.

    Walks the post-onset durations in order, comparing each against a
    rolling median of the last ``window`` healthy samples (seeded with
    the pre-onset durations, or the config's expected broadcast duration
    when the failure starts at iteration 0) plus ``mad_factor`` median
    absolute deviations of noise head-room.  Samples under the threshold
    are absorbed into the healthy history, so a drifting baseline moves
    the threshold with it instead of tripping false positives.  ``None``
    entries (iterations a quorum campaign lost) are skipped.

    Returns the detection verdict plus the two headline numbers:
    ``iterations_to_detect`` (how many post-onset measurements it took)
    and ``time_to_detect_s`` (the simulated measurement time they cost).
    """
    if detect_factor <= 1.0:
        raise ValueError(
            f"detect_factor must exceed 1.0 (a spike *ratio*), got {detect_factor}"
        )
    if window < 1:
        raise ValueError(f"detect window must be at least 1, got {window}")
    healthy = [float(d) for d in durations[:onset] if d is not None]
    if not healthy:
        healthy = [float(expected_duration)]
    baseline: Optional[float] = None
    detected_iteration: Optional[int] = None
    for i in range(onset, len(durations)):
        d = durations[i]
        if d is None:
            continue
        recent = healthy[-window:]
        baseline = statistics.median(recent)
        mad = statistics.median(abs(x - baseline) for x in recent)
        if d > detect_factor * baseline + mad_factor * mad:
            detected_iteration = i
            break
        healthy.append(float(d))
    if baseline is None:
        # No post-onset measurement arrived (empty or all-failed window).
        baseline = statistics.median(healthy[-window:])
    out: Dict[str, object] = {
        "baseline_duration_s": float(baseline),
        "detect_factor": detect_factor,
        "fault_onset_iteration": onset,
        "detected": detected_iteration is not None,
        "detected_iteration": detected_iteration,
        "iterations_to_detect": None,
        "time_to_detect_s": None,
    }
    if detected_iteration is not None:
        out["iterations_to_detect"] = detected_iteration - onset + 1
        out["time_to_detect_s"] = float(
            sum(
                d
                for d in durations[onset : detected_iteration + 1]
                if d is not None
            )
        )
    return out


def detect_epochs(
    durations: Sequence[Optional[float]],
    onsets: Sequence[int],
    expected_duration: float,
    detect_factor: float = DETECT_FACTOR,
    window: int = DETECT_WINDOW,
    mad_factor: float = MAD_FACTOR,
) -> List[Dict[str, object]]:
    """Per-epoch detection for a failure that relocates mid-campaign.

    Epoch ``k`` spans ``[onsets[k], onsets[k+1])`` (the last runs to the
    end).  Every epoch's healthy history is seeded from the durations
    *before the first onset* — once any failure has been active, later
    windows are no longer healthy references.
    """
    onsets = [int(o) for o in onsets]
    if any(b <= a for a, b in zip(onsets, onsets[1:])):
        raise ValueError("epoch onsets must be strictly increasing")
    seed = list(durations[: onsets[0]])
    verdicts = []
    for k, onset in enumerate(onsets):
        end = onsets[k + 1] if k + 1 < len(onsets) else len(durations)
        verdict = detect_failure(
            seed + list(durations[onset:end]),
            len(seed),
            expected_duration,
            detect_factor=detect_factor,
            window=window,
            mad_factor=mad_factor,
        )
        # Remap the synthetic sequence's index back to campaign iterations.
        shift = onset - len(seed)
        if verdict["detected_iteration"] is not None:
            verdict["detected_iteration"] += shift
        verdict["fault_onset_iteration"] = onset
        verdict["epoch"] = k
        verdict["end_iteration"] = end
        verdicts.append(verdict)
    return verdicts


def _epoch_truths(
    plan: WorkloadSpec,
    onsets: Sequence[int],
    ends: Sequence[int],
    aligned_stats: Sequence[Optional[list]],
) -> List[Optional[str]]:
    """Ground-truth failed link per epoch, when it is unambiguous.

    Preferred source: the plan itself (a single pinned ``links`` victim
    on the epoch's link-failure spec).  Fallback: the union of victim
    names the link-failure injectors actually recorded (``failed_links``
    in the epoch's workload stats; route flaps share the row shape but are
    not failures).  Several distinct victims → no single truth.
    """
    truths: List[Optional[str]] = []
    for onset, end in zip(onsets, ends):
        pinned = set()
        for spec in plan.actors:
            if spec.kind != "link-failure":
                continue
            p = spec.param_dict()
            if int(p.get("from_iteration", 0)) != onset:
                continue
            pinned.update(p.get("links") or ())
        if len(pinned) != 1:
            pinned = set()
            for i in range(onset, min(end, len(aligned_stats))):
                for row in aligned_stats[i] or ():
                    if row.get("kind") == "link-failure":
                        pinned.update(row["failed_links"])
        truths.append(next(iter(pinned)) if len(pinned) == 1 else None)
    return truths


def _aligned_record(record, planned: int):
    """Planned-iteration-aligned (completions, durations, stats) lists.

    ``MeasurementRecord`` stores only the *achieved* iterations; quorum
    campaigns may have holes.  Detection and localization reason about
    planned iteration indices (fault onsets are planned indices), so the
    record is re-spread with ``None`` in the failed slots.
    """
    failed = set(record.failed_iterations)
    achieved_slots = [i for i in range(planned) if i not in failed]
    completions: List[Optional[Dict[str, float]]] = [None] * planned
    durations: List[Optional[float]] = [None] * planned
    stats: List[Optional[list]] = [None] * planned
    for slot, result in zip(achieved_slots, record.results):
        completions[slot] = result.completion_times
        durations[slot] = result.duration
    for slot, rows in zip(achieved_slots, record.workload_stats):
        stats[slot] = rows
    return completions, durations, stats


def fault_verdicts(
    record,
    plan: WorkloadSpec,
    routing,
    config,
    detect_factor: Optional[float] = None,
) -> Dict[str, object]:
    """Detection and localization verdicts of a campaign run under ``plan``.

    ``plan`` must inject something (campaigns drop the empty plan).  The
    top-level headline numbers aggregate across failure epochs the way an
    operator would score the study: ``time_to_localize_s`` sums the
    per-epoch costs (``None`` if any epoch never converged),
    ``localization_rank`` is the *worst* epoch's rank, and
    ``localized_link`` is the most recent epoch's verdict.  The merged
    per-epoch detection + localization verdicts are under ``epochs``.
    """
    if detect_factor is None:
        detect_factor = DETECT_FACTOR
    planned = record.planned_iterations or record.iterations
    completions, durations, stats = _aligned_record(record, planned)
    expected = expected_broadcast_duration(config)
    out = detect_failure(
        durations, fault_onset_iteration(plan), expected,
        detect_factor=detect_factor,
    )
    onsets = fault_epoch_onsets(plan)
    truths = _epoch_truths(plan, onsets, onsets[1:] + [planned], stats)
    located = localize_epochs(completions, durations, onsets, routing, truths)
    detected = detect_epochs(
        durations, onsets, expected, detect_factor=detect_factor
    )
    ranks = [e["localization_rank"] for e in located]
    times = [e["time_to_localize_s"] for e in located]
    iters = [e["iterations_to_localize"] for e in located]
    last = located[-1]
    out.update(
        localized_link=last["localized_link"],
        localization_status=last["localization_status"],
        localization_rank=None if None in ranks else max(ranks),
        localization_candidates=last["localization_candidates"],
        true_link=last["true_link"],
        iterations_to_localize=None if None in iters else int(sum(iters)),
        time_to_localize_s=None if None in times else float(sum(times)),
        epochs=[{**det, **loc} for det, loc in zip(detected, located)],
    )
    return out
