"""Declarative scenario specifications.

A :class:`ScenarioSpec` bundles everything needed to reproduce one
experimental setting: how to build the substrate (topology + hosts + ground
truth, via a :class:`~repro.experiments.datasets.Dataset` factory), the
campaign parameters (iterations, fragments per broadcast, seed), and the
expectations recorded on the dataset.  Specs are frozen: running one never
mutates it, so the same spec can be executed repeatedly, swept over
parameter grids, and fanned out across executor backends.

Two flavours exist:

* *campaign scenarios* carry a ``dataset_factory`` and run the standard
  measure → aggregate → cluster → evaluate pipeline;
* *runner scenarios* carry a custom ``runner`` callable for experiments that
  do not fit the single-campaign mould (Fig. 4/5/13, broadcast efficiency,
  baseline cost, NetPIPE probes).

Both produce a plain summary dictionary; :func:`to_jsonable` strips it down
to what can be written with ``json.dump`` (the CLI's ``--json`` output).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.bittorrent.swarm import SwarmConfig
from repro.experiments.datasets import Dataset
from repro.scenarios.executors import ProcessPoolExecutor, default_executor

#: Campaign parameters every scenario understands; ``ScenarioSpec.run``
#: resolves them from spec defaults and per-run overrides.
CAMPAIGN_PARAMS = ("iterations", "num_fragments", "seed")


@dataclass(frozen=True)
class ScenarioSpec:
    """One registered experimental scenario.

    Attributes
    ----------
    name:
        Registry key, e.g. ``"B-G-T"`` or ``"FATTREE-4x4"``.
    family:
        Scenario family (``"paper"``, ``"figure"``, ``"fat-tree"``, ...);
        used for grouping in ``repro list`` and for sweep selection.
    description:
        One-line human description.
    dataset_factory:
        Builds the topology/hosts/ground-truth bundle; keyword arguments are
        the scenario's tunables (e.g. ``per_site``).  Exactly one of
        ``dataset_factory`` and ``runner`` must be set.
    runner:
        Custom experiment body for scenarios that are not a single campaign
        (the figure runners are registered as they are).  Called with the
        per-run overrides plus whichever of ``iterations``,
        ``num_fragments``, ``seed``, ``executor`` and ``stepping`` it takes,
        and must return a summary dict.
    iterations / num_fragments / seed:
        Campaign defaults, overridable per run.
    tags:
        Free-form labels (``"beyond-paper"``, ``"sweepable"``, ...).
    formatter:
        Optional summary → human-readable text renderer used by the CLI.
    """

    name: str
    family: str
    description: str = ""
    dataset_factory: Optional[Callable[..., Dataset]] = None
    runner: Optional[Callable[..., Dict[str, object]]] = None
    iterations: int = 8
    num_fragments: int = 600
    seed: int = 2012
    tags: Tuple[str, ...] = ()
    formatter: Optional[Callable[[Dict[str, object]], str]] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario name must be non-empty")
        if (self.dataset_factory is None) == (self.runner is None):
            raise ValueError(
                f"scenario {self.name!r} needs exactly one of "
                "dataset_factory or runner"
            )
        if self.iterations < 1:
            raise ValueError("iterations must be at least 1")
        if self.num_fragments < 1:
            raise ValueError("num_fragments must be at least 1")

    # ------------------------------------------------------------------ #
    @property
    def kind(self) -> str:
        return "campaign" if self.dataset_factory is not None else "runner"

    def build_dataset(self, **overrides) -> Dataset:
        """Instantiate the scenario's dataset (campaign scenarios only)."""
        if self.dataset_factory is None:
            raise ValueError(f"scenario {self.name!r} has no dataset (custom runner)")
        return self.dataset_factory(**overrides)

    def unknown_overrides(self, overrides: Mapping[str, object]) -> List[str]:
        """Override names the scenario's tunable surface does not accept.

        Campaign overrides go to the dataset factory, runner overrides to
        the runner; a ``**kwargs`` in either accepts everything.  Used by
        the CLI to reject typos up front instead of catching ``TypeError``
        around the whole run (which would swallow genuine bugs).
        """
        target = self.dataset_factory or self.runner
        parameters = inspect.signature(target).parameters
        if any(p.kind == p.VAR_KEYWORD for p in parameters.values()):
            return []
        return sorted(k for k in overrides if k not in parameters)

    def run(
        self,
        executor: Optional[ProcessPoolExecutor] = None,
        iterations: Optional[int] = None,
        num_fragments: Optional[int] = None,
        seed: Optional[int] = None,
        stepping: Optional[str] = None,
        workload: Optional[object] = None,
        faults: Optional[object] = None,
        quorum: Optional[int] = None,
        detect_factor: Optional[float] = None,
        **overrides,
    ) -> Dict[str, object]:
        """Execute the scenario and return its summary dictionary.

        ``overrides`` are forwarded to the dataset factory (campaign
        scenarios) or the custom runner; campaign parameters default to the
        spec's values.  ``workload`` (a preset name or
        :class:`~repro.workloads.WorkloadSpec`) layers a multi-tenant
        interference workload under the measurement campaign; ``faults``
        (a preset name or a fault plan, also a ``WorkloadSpec``) injects
        deterministic failures, ``quorum`` lets the campaign proceed with
        ≥k surviving iterations, and ``detect_factor`` sets the failure
        detector's spike ratio.  Campaign scenarios run
        :func:`~repro.experiments.runners.run_dataset_clustering` with
        convergence tracking, and runner scenarios their runner.  The
        executor is resolved once (``REPRO_EXECUTOR`` when none is passed).
        One rule routes the knobs to that body: the campaign parameters,
        the executor and ``stepping`` reach it only if it takes them
        (swarm-less experiments such as the NetPIPE probes have no campaign
        and no control loop, so suite-wide defaults must not break them);
        the other four are forwarded if it takes them and otherwise raise
        ``ValueError``, so an explicit request is never silently dropped.
        A body that takes ``faults`` has a failure detector only under a
        fault plan that injects something (``--faults none`` has none); a
        body with its own plan takes no ``faults``.  The summary always carries ``scenario``, ``family``, ``executor`` and
        ``stepping`` keys so downstream records know what produced them.
        """
        from repro.experiments.runners import run_dataset_clustering

        iterations = self.iterations if iterations is None else iterations
        num_fragments = self.num_fragments if num_fragments is None else num_fragments
        seed = self.seed if seed is None else seed
        if executor is None:
            executor = default_executor()
        body = self.runner or run_dataset_clustering
        parameters = inspect.signature(body).parameters
        takes_all = any(p.kind == p.VAR_KEYWORD for p in parameters.values())
        routed = {"iterations": iterations, "num_fragments": num_fragments,
                  "seed": seed, "executor": executor, "stepping": stepping}
        kwargs: Dict[str, object] = {
            name: value for name, value in routed.items()
            if takes_all or name in parameters
        }
        for name, value in (("workload", workload), ("faults", faults),
                            ("quorum", quorum), ("detect_factor", detect_factor)):
            if value is None:
                continue
            if name == "detect_factor" and "faults" in parameters:
                from repro.faults import fault_plan_from_name

                if not fault_plan_from_name(faults):
                    raise ValueError(
                        f"scenario {self.name} has no failure detector; "
                        "--detect-factor needs a fault plan (--faults)"
                    )
            if not (takes_all or name in parameters):
                raise ValueError(
                    f"scenario {self.name} does not take "
                    f"--{name.replace('_', '-')}"
                )
            kwargs[name] = value
        if self.runner is None:
            kwargs.update(ds=self.build_dataset(**overrides), track_convergence=True)
        else:
            kwargs.update(overrides)
        summary = body(**kwargs)
        summary["scenario"] = self.name
        summary["family"] = self.family
        # Campaign studies report the backend that actually ran (quorum
        # forces the in-process loop); a runner ran the one it was handed,
        # and a runner that takes no executor ran in-process.
        summary.setdefault(
            "executor",
            executor.name if executor is not None and "executor" in kwargs
            else "serial",
        )
        summary.setdefault("stepping", stepping or SwarmConfig.stepping)
        summary["iterations_run"] = iterations
        summary["seed_used"] = seed
        return summary

    def format(self, summary: Mapping[str, object]) -> str:
        """Render a summary for terminal output."""
        if self.formatter is not None:
            return self.formatter(dict(summary))
        return default_format(dict(summary))

    def describe(self) -> str:
        """One-line listing entry."""
        kind = "campaign" if self.dataset_factory is not None else "runner"
        return f"{self.name:16s} [{self.family}/{kind}] {self.description}"


# ---------------------------------------------------------------------- #
# summary rendering and JSON conversion
# ---------------------------------------------------------------------- #
def default_format(summary: Dict[str, object]) -> str:
    """Generic fallback rendering: every scalar entry, one per line."""
    lines = [f"scenario {summary.get('scenario', '?')} "
             f"(family {summary.get('family', '?')}, "
             f"executor {summary.get('executor', '?')})"]
    for key, value in summary.items():
        if key in ("scenario", "family", "executor"):
            continue
        if isinstance(value, (str, int, float, bool)) or value is None:
            lines.append(f"  {key}: {value}")
    return "\n".join(lines)


#: Sentinel for values that cannot be represented in JSON output.
_OMIT = object()

#: Keys of heavyweight in-memory objects stripped from JSON summaries.
_HEAVY_KEYS = frozenset({"result", "record"})


def to_jsonable(value: object) -> object:
    """Best-effort conversion of a summary value into JSON-encodable data.

    Simulation objects that have no sensible JSON form (pipeline results,
    measurement records, graphs) collapse to the internal ``_OMIT`` marker
    and are dropped from their containing dict/list by the caller.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, Mapping):
        out = {}
        for key, item in value.items():
            converted = to_jsonable(item)
            if converted is not _OMIT:
                out[str(key)] = converted
        return out
    if isinstance(value, (list, tuple, set, frozenset)):
        items = [to_jsonable(item) for item in value]
        return [item for item in items if item is not _OMIT]
    # Convergence studies appear as values in fig13-style summaries.
    curve = getattr(value, "curve", None)
    dataset = getattr(value, "dataset", None)
    if curve is not None and dataset is not None:
        return {"dataset": dataset, "curve": [float(v) for v in curve]}
    return _OMIT


def jsonable_summary(summary: Mapping[str, object]) -> Dict[str, object]:
    """The JSON-encodable projection of a scenario summary."""
    out = {}
    for key, value in summary.items():
        if key in _HEAVY_KEYS:
            continue
        converted = to_jsonable(value)
        if converted is not _OMIT:
            out[str(key)] = converted
    return out
