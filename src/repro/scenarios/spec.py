"""Declarative scenario specifications.

A :class:`ScenarioSpec` bundles everything needed to reproduce one
experimental setting: how to build the substrate (topology + hosts + ground
truth, via a :class:`~repro.experiments.datasets.Dataset` factory) or the
custom body that runs instead, and the expectations recorded on the
dataset.  A spec holds no run settings of its own: the defaults of every
knob (iterations, fragments per broadcast, seed, tunables) are its
functions' signatures, read by :meth:`ScenarioSpec.defaults`.  Specs are
frozen: running one never mutates it, so the same spec can be executed
repeatedly, swept over parameter grids, and fanned out across executor
backends.

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
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional

import numpy as np

from repro.bittorrent.swarm import SwarmConfig
from repro.experiments.datasets import Dataset
from repro.scenarios.executors import ProcessPoolExecutor

#: The campaign parameters: ``ScenarioSpec.run`` passes each one a caller
#: set to a body that takes it, and the body's signature holds its default.
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
        ``num_fragments``, ``seed``, ``executor`` and ``stepping`` the caller
        set and it takes, and must return a summary dict.
    formatter:
        Optional summary → human-readable text renderer used by the CLI.
    """

    name: str
    family: str
    description: str = ""
    dataset_factory: Optional[Callable[..., Dataset]] = None
    runner: Optional[Callable[..., Dict[str, object]]] = None
    formatter: Optional[Callable[[Dict[str, object]], str]] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario name must be non-empty")
        if (self.dataset_factory is None) == (self.runner is None):
            raise ValueError(
                f"scenario {self.name!r} needs exactly one of "
                "dataset_factory or runner"
            )

    # ------------------------------------------------------------------ #
    @property
    def kind(self) -> str:
        return "campaign" if self.dataset_factory is not None else "runner"

    @property
    def body(self) -> Callable[..., Dict[str, object]]:
        """The function a run calls: the runner, or for a campaign scenario
        :func:`~repro.experiments.runners.run_dataset_clustering`."""
        from repro.experiments.runners import run_dataset_clustering

        return self.runner or run_dataset_clustering

    def defaults(self) -> Dict[str, object]:
        """The scenario's run settings: the defaults in the signatures of
        the dataset factory (a campaign scenario's tunables) and of the
        :attr:`body` (a runner's tunables, and the campaign parameters of
        both kinds).  A knob the scenario does not take has no entry."""
        out: Dict[str, object] = {}
        for fn in (self.dataset_factory, self.body):
            if fn is not None:
                out.update(
                    (name, p.default)
                    for name, p in inspect.signature(fn).parameters.items()
                    if p.default is not p.empty
                )
        return out

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

    def route_knobs(self, knobs: Mapping[str, object]) -> Dict[str, object]:
        """The knobs a run passes to the :attr:`body`, out of ``run``'s nine.

        A knob left at ``None`` is not passed, so the body's own default
        applies.  The campaign parameters, the executor and ``stepping``
        reach the body only if it takes them (swarm-less experiments such
        as the NetPIPE probes have no campaign and no control loop, so a
        suite-wide ``--seed`` or ``--stepping`` must not break them); the
        other four are passed if it takes them and otherwise raise
        ``ValueError``, so an explicit request is never silently dropped.
        A body that takes ``faults`` has a failure detector only under a
        fault plan that injects something (``--faults none`` has none); a
        body with its own plan takes no ``faults``.  The CLI calls this
        before it opens ``--trace``, so a rejected command leaves the trace
        file as it was.
        """
        parameters = inspect.signature(self.body).parameters
        takes_all = any(p.kind == p.VAR_KEYWORD for p in parameters.values())
        kwargs: Dict[str, object] = {}
        for name, value in knobs.items():
            if value is None:
                continue
            if name == "detect_factor" and "faults" in parameters:
                from repro.faults import fault_plan_from_name

                if not fault_plan_from_name(knobs.get("faults")):
                    raise ValueError(
                        f"scenario {self.name} has no failure detector; "
                        "--detect-factor needs a fault plan (--faults)"
                    )
            if takes_all or name in parameters:
                kwargs[name] = value
            elif name in ("workload", "faults", "quorum", "detect_factor"):
                raise ValueError(
                    f"scenario {self.name} does not take --{name.replace('_', '-')}"
                )
        return kwargs

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
        scenarios) or the custom runner.  ``workload`` (a preset name or
        :class:`~repro.workloads.WorkloadSpec`) layers a multi-tenant
        interference workload under the measurement campaign; ``faults``
        (a preset name or a fault plan, also a ``WorkloadSpec``) injects
        deterministic failures, ``quorum`` lets the campaign proceed with
        ≥k surviving iterations, and ``detect_factor`` sets the failure
        detector's spike ratio.  Campaign scenarios run
        :func:`~repro.experiments.runners.run_dataset_clustering` with
        convergence tracking, and runner scenarios their runner
        (:attr:`body`); :meth:`route_knobs` decides which knobs reach it.
        The summary always carries ``scenario``, ``family``, ``executor``
        and ``stepping`` keys so downstream records know what produced
        them, and ``iterations_run`` and ``seed_used`` (the value passed,
        else the body's default) when the body takes that knob.
        """
        body = self.body
        kwargs = self.route_knobs({
            "executor": executor, "iterations": iterations,
            "num_fragments": num_fragments, "seed": seed, "stepping": stepping,
            "workload": workload, "faults": faults, "quorum": quorum,
            "detect_factor": detect_factor,
        })
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
            "executor", executor.name if "executor" in kwargs else "serial"
        )
        summary.setdefault("stepping", stepping or SwarmConfig.stepping)
        settings = {**self.defaults(), **kwargs}
        for knob, key in (("iterations", "iterations_run"), ("seed", "seed_used")):
            if knob in settings:
                summary[key] = settings[knob]
        return summary

    def format(self, summary: Mapping[str, object]) -> str:
        """Render a summary for terminal output."""
        if self.formatter is not None:
            return self.formatter(dict(summary))
        return default_format(dict(summary))

    def describe(self) -> str:
        """One-line listing entry."""
        return f"{self.name:16s} [{self.family}/{self.kind}] {self.description}"


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
