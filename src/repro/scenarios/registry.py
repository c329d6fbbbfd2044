"""Decorator-based scenario registry.

Scenarios register themselves at import time:

>>> @scenario("G-T", family="paper", description="Grenoble + Toulouse")
... def _gt(per_site: int = 8) -> Dataset:
...     return dataset_gt(per_site=per_site)

>>> runner_scenario("netpipe", family="figure",
...                 description="NetPIPE probes")(run_netpipe_reference)

A registration names the function and how to list and print it, never
a run setting: ``run_netpipe_reference(repeats=5)``'s default is the
scenario's.  The CLI (``repro run/list/sweep``) and the benchmark harness
resolve names through :func:`get_scenario`; the built-in catalogue lives in
:mod:`repro.scenarios.catalog` and is loaded on the first lookup, so that
every entry point sees the same registry.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.scenarios.spec import ScenarioSpec

_REGISTRY: Dict[str, ScenarioSpec] = {}


def register(spec: ScenarioSpec) -> ScenarioSpec:
    """Add a spec to the registry; duplicate names are a programming error."""
    if spec.name in _REGISTRY:
        raise ValueError(f"scenario {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def unregister(name: str) -> None:
    """Remove a scenario (used by tests to keep the registry clean)."""
    _REGISTRY.pop(name, None)


def scenario(
    name: str,
    *,
    family: str,
    description: str = "",
    formatter: Optional[Callable] = None,
) -> Callable[[Callable], Callable]:
    """Register the decorated dataset factory as a campaign scenario."""
    return _registrar("dataset_factory", name, family, description, formatter)


def runner_scenario(
    name: str,
    *,
    family: str,
    description: str = "",
    formatter: Optional[Callable] = None,
) -> Callable[[Callable], Callable]:
    """Register the decorated callable as a custom-runner scenario."""
    return _registrar("runner", name, family, description, formatter)


def _registrar(
    body_field: str,
    name: str,
    family: str,
    description: str,
    formatter: Optional[Callable],
) -> Callable[[Callable], Callable]:
    """The decorator both helpers return: register ``fn`` as the spec's
    ``body_field`` and hand it back unchanged."""

    def wrap(fn: Callable) -> Callable:
        register(
            ScenarioSpec(
                name=name,
                family=family,
                description=description or _first_doc_line(fn),
                formatter=formatter,
                **{body_field: fn},
            )
        )
        return fn

    return wrap


def _first_doc_line(fn: Callable) -> str:
    doc = (fn.__doc__ or "").strip()
    return doc.splitlines()[0] if doc else ""


# ---------------------------------------------------------------------- #
# lookups
# ---------------------------------------------------------------------- #
_catalog_loaded = False


def _ensure_catalog() -> None:
    """Load the built-in catalogue on first lookup.

    The catalogue imports the experiment runners, which in turn import the
    executor backends from this package — loading it lazily (instead of in
    the package ``__init__``) keeps that cycle open.
    """
    global _catalog_loaded
    if not _catalog_loaded:
        _catalog_loaded = True
        from repro.scenarios import catalog  # noqa: F401  (import side effects)


def get_scenario(name: str) -> ScenarioSpec:
    """Resolve a registered scenario by name."""
    _ensure_catalog()
    try:
        return _REGISTRY[name]
    except KeyError as exc:
        raise KeyError(
            f"unknown scenario {name!r}; available: {', '.join(scenario_names())}"
        ) from exc


def scenario_names() -> List[str]:
    """All registered names, sorted."""
    _ensure_catalog()
    return sorted(_REGISTRY)


def all_scenarios(family: Optional[str] = None) -> List[ScenarioSpec]:
    """All specs (optionally one family), sorted by (family, name)."""
    _ensure_catalog()
    specs = [
        spec
        for spec in _REGISTRY.values()
        if family is None or spec.family == family
    ]
    return sorted(specs, key=lambda s: (s.family, s.name))


def families() -> List[str]:
    """The distinct scenario families, sorted."""
    _ensure_catalog()
    return sorted({spec.family for spec in _REGISTRY.values()})
