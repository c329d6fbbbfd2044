"""Declarative scenario subsystem.

``repro.scenarios`` turns the repo's experiment menu into data: a
:class:`~repro.scenarios.spec.ScenarioSpec` names one setting (its dataset
factory or custom runner, how to list it and how to print it), a
decorator-based registry names them, and the executor argument decides
*how* the independent seeded broadcasts of a campaign run — in-process
(``executor=None``) or fanned out over a
:class:`~repro.scenarios.executors.ProcessPoolExecutor` — without changing
a single measured bit.  A scenario's iterations, fragments, seed and
tunables default to its functions' signatures (``spec.defaults()``), and
nothing in the environment selects the executor.

See ``docs/scenarios.md`` for the full guide, including how to add a
scenario.
"""

from repro.scenarios.executors import (
    CampaignExecutionError,
    EXECUTOR_NAMES,
    ProcessPoolExecutor,
    executor_from_name,
)
from repro.scenarios.registry import (
    all_scenarios,
    families,
    get_scenario,
    register,
    runner_scenario,
    scenario,
    scenario_names,
    unregister,
)
from repro.scenarios.spec import ScenarioSpec, jsonable_summary, to_jsonable

# The built-in catalogue (paper datasets, figure runners, generated
# families) is loaded lazily by the registry lookups: the catalogue imports
# the experiment runners, which import the executors from this package, so
# an eager import here would close an import cycle.

__all__ = [
    "CampaignExecutionError",
    "EXECUTOR_NAMES",
    "ProcessPoolExecutor",
    "ScenarioSpec",
    "all_scenarios",
    "executor_from_name",
    "families",
    "get_scenario",
    "jsonable_summary",
    "register",
    "runner_scenario",
    "scenario",
    "scenario_names",
    "to_jsonable",
    "unregister",
]
