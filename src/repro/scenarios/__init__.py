"""Declarative scenario subsystem.

``repro.scenarios`` turns the repo's experiment menu into data: a
:class:`~repro.scenarios.spec.ScenarioSpec` describes one setting (topology
factory, hosts, swarm/tomography configuration, iterations, seeds and
expectations), a decorator-based registry names them, and the executor
decides *how* the independent seeded broadcasts of a campaign run —
in-process (``executor=None``) or fanned out over a
:class:`~repro.scenarios.executors.ProcessPoolExecutor` — without changing
a single measured bit.

See ``docs/scenarios.md`` for the full guide, including how to add a
scenario.
"""

from repro.scenarios.executors import (
    BroadcastTask,
    CampaignExecutionError,
    EXECUTOR_NAMES,
    ProcessPoolExecutor,
    TaskOutput,
    default_executor,
    execute_task_output,
    executor_from_name,
    workers_from_env,
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
    "BroadcastTask",
    "CampaignExecutionError",
    "EXECUTOR_NAMES",
    "ProcessPoolExecutor",
    "ScenarioSpec",
    "TaskOutput",
    "all_scenarios",
    "default_executor",
    "execute_task_output",
    "executor_from_name",
    "workers_from_env",
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
