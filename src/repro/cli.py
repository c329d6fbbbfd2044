"""Command-line interface: ``python -m repro <command> [options]``.

The CLI is a thin shell over the scenario registry
(:mod:`repro.scenarios`): every experiment — the paper's datasets and
figures as well as the generated families beyond the paper — is a
registered scenario, reachable through three generic subcommands:

* ``python -m repro list`` — the registered scenarios, grouped by family;
* ``python -m repro run B-G-T --per-site 8 --iterations 10`` — run one
  scenario (``--executor process`` fans the campaign out over worker
  processes, bit-for-bit identical to serial; ``--workload cross-heavy``
  embeds every measured broadcast in a multi-tenant interference workload,
  see docs/workloads.md);
* ``python -m repro sweep HETERO-UPLINK --param squeeze --values 1.0,0.5,0.2``
  — run a scenario across a parameter grid and tabulate the outcomes.

Telemetry (docs/observability.md) surfaces through three more entries:
``run``/``sweep`` accept ``--trace PATH`` (structured JSONL tracing of the
whole run, ``--trace-detail full`` for per-step records), ``python -m repro
trace export|summary`` consumes such files (``export --chrome`` emits a
Chrome/Perfetto-loadable trace), and ``python -m repro metrics`` prints the
metric catalogue every run records into.

Every subcommand accepts ``--json <path>`` to write a machine-readable
record of what it printed.  Commands exit 0 on success, 2 on unknown
scenarios/parameters or a knob the scenario does not take (``repro run
netpipe --quorum 1``), so they compose with shell scripts.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional, Sequence

from repro.bittorrent.swarm import STEPPING_MODES
from repro.scenarios import (
    EXECUTOR_NAMES,
    all_scenarios,
    executor_from_name,
    families,
    get_scenario,
    jsonable_summary,
)
from repro.faults import FAULT_NAMES
from repro.observability import METRIC_CATALOGUE, METRICS, TRACE_DETAILS, TRACER
from repro.observability.tracer import TraceConfigError
from repro.scenarios.spec import CAMPAIGN_PARAMS
from repro.workloads import WORKLOAD_NAMES

#: Keys preferred for the one-line-per-run sweep table (first ones present win).
_SWEEP_COLUMNS = (
    "found_clusters",
    "expected_clusters",
    "measured_nmi",
    "modularity",
    "measurement_time_s",
    "time_to_detect_s",
    "time_to_localize_s",
    "node_scaling_ratio",
    "size_scaling_ratio",
    "zero_runs",
)


def _parse_value(raw: str):
    """Parse a ``--set``/``--values`` token: int, float, bool, list or str."""
    text = raw.strip()
    if "," in text:
        return tuple(_parse_value(part) for part in text.split(",") if part.strip())
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def _fit(value: object, default: object) -> object:
    """A single value for a tunable whose default is a sequence becomes a
    one-element tuple: ``--set node_counts=4`` means ``(4,)``."""
    if isinstance(default, (tuple, list)) and not isinstance(value, tuple):
        return (value,)
    return value


def _accepts(default: object, value: object) -> bool:
    """Whether a parsed value fits the type of a knob's default: an int
    default takes no bool, a float default also takes an int, a tuple
    default takes a tuple of its first item's type, and a ``None`` default
    takes anything."""
    if isinstance(default, tuple):
        return isinstance(value, tuple) and all(_accepts(default[0], v) for v in value)
    if default is None or isinstance(value, bool) != isinstance(default, bool):
        return default is None
    if isinstance(default, float):
        return isinstance(value, (int, float))
    return isinstance(value, type(default))


def _parse_overrides(pairs: Optional[Sequence[str]]) -> Dict[str, object]:
    overrides: Dict[str, object] = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise ValueError(f"--set expects key=value, got {pair!r}")
        key, _, raw = pair.partition("=")
        overrides[key.strip().replace("-", "_")] = _parse_value(raw)
    return overrides


def _write_json(path: Optional[str], payload: Dict[str, object]) -> None:
    if not path:
        return
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=False)
        handle.write("\n")
    print(f"wrote {path}")


def _validate_detection_args(args: argparse.Namespace, spec, iterations) -> None:
    """Fail-fast checks on the detection/quorum knobs, before any run.

    ``iterations`` is the shortest campaign the command runs (``None``:
    the body's default).  A bad threshold or an unsatisfiable quorum must
    surface immediately, not after the campaign burned its measurement
    budget (or, worse, silently detect nothing because the factor was
    below 1).
    """
    if args.detect_factor is not None and args.detect_factor <= 1.0:
        raise ValueError(
            f"--detect-factor must exceed 1.0 (a duration-spike *ratio*), "
            f"got {args.detect_factor:g}"
        )
    if args.quorum is not None:
        if args.quorum < 1:
            raise ValueError(f"--quorum must be at least 1, got {args.quorum}")
        if iterations is None:
            iterations = spec.defaults().get("iterations")
        if iterations is not None and args.quorum > iterations:
            raise ValueError(
                f"--quorum ({args.quorum}) cannot exceed the campaign's "
                f"iterations ({iterations}): the quorum could never be met"
            )


def _prologue(
    args: argparse.Namespace,
    param: Optional[str] = None,
    values: Sequence[object] = (),
):
    """The fail-fast checks ``run`` and ``sweep`` share, before any run.

    Rejects an option that needs another one it did not get (``--workers``
    without ``--executor process``, ``--trace-detail`` without ``--trace``,
    an empty ``--values``), resolves the scenario, parses ``--set`` with
    ``--per-site`` merged in, rejects a run knob set as a tunable, tunables
    the scenario does not take and values not of their default's type,
    checks the detection knobs, builds the executor, routes the knobs to
    the scenario's body (:meth:`ScenarioSpec.route_knobs`, which rejects a
    knob the body does not take) and configures ``--trace``
    (:func:`_stage_trace`): an unwritable path must not surface hours into a
    campaign.
    A sweep passes its axis as ``param``/``values``: a tunable axis is
    checked like a ``--set`` key, an ``iterations`` axis bounds
    ``--quorum`` by its least value, and a campaign parameter the body
    does not take is rejected (a run ignores it, and an axis of identical
    rows must not pass for a sweep).  Returns ``(spec,
    overrides, knobs)``; raises ``ValueError`` with the one line the
    command prints before exiting 2.
    """
    if args.workers is not None and args.executor != "process":
        raise ValueError("--workers needs --executor process")
    if args.trace_detail is not None and not args.trace:
        raise ValueError("--trace-detail needs --trace")
    if param is not None and not values:
        raise ValueError("--values needs at least one value")
    try:
        spec = get_scenario(args.scenario)
    except KeyError as exc:
        raise ValueError(exc.args[0]) from None
    defaults = spec.defaults()
    overrides = {
        key: _fit(value, defaults.get(key))
        for key, value in _parse_overrides(args.set).items()
    }
    if args.per_site is not None:
        overrides.setdefault("per_site", args.per_site)
    tunables = dict(overrides)
    if param is not None and param not in CAMPAIGN_PARAMS:
        tunables[param] = values[0]
    for key in tunables:
        if key in _KNOB_OPTIONS:
            flag = "--" + _KNOB_OPTIONS[key].replace("_", "-")
            raise ValueError(f"{key} is a run knob, not a tunable: use {flag}")
    unknown = spec.unknown_overrides(tunables)
    if unknown:
        what = "override" if param is None else "sweep parameter(s)"
        raise ValueError(
            f"bad {what} for scenario {spec.name!r}: "
            f"unknown tunables {', '.join(unknown)}"
        )
    # A swept campaign parameter is an int whatever the body's default.
    axis_default = 0 if param in CAMPAIGN_PARAMS else defaults.get(param)
    typed = [(key, value, defaults.get(key)) for key, value in overrides.items()]
    typed += [(param, _fit(value, axis_default), axis_default) for value in values]
    for key, value, default in typed:
        if not _accepts(default, value):
            expected = type(default).__name__
            if isinstance(default, tuple):
                expected = f"a tuple of {type(default[0]).__name__}"
            raise ValueError(f"{key}: expected {expected}, got {value!r}")
    _validate_detection_args(
        args, spec, min(values) if param == "iterations" else args.iterations
    )
    if param in CAMPAIGN_PARAMS and param not in defaults:
        raise ValueError(f"scenario {spec.name} does not take {param}")
    knobs = _knobs(args)
    spec.route_knobs(knobs)
    if args.trace:
        _stage_trace(args)
    return spec, overrides, knobs


def _stage_trace(args: argparse.Namespace) -> None:
    """Record ``--trace PATH`` into the sibling file ``PATH.part``.

    :func:`main` moves it onto ``PATH`` when the command ends, and deletes
    it instead when the command is rejected (exit 2, which the scenario's
    body can still decide), so a rejected command leaves ``PATH`` as it
    was, or absent.  A directory, a file that is not writable and a
    missing directory fail here, before anything runs.
    """
    path = args.trace
    if os.path.isdir(path) or (os.path.exists(path) and not os.access(path, os.W_OK)):
        raise TraceConfigError(f"trace path {path!r} is not writable")
    TRACER.configure(path + ".part", detail=args.trace_detail)
    args.trace_part = path + ".part"


#: Each ``ScenarioSpec.run`` knob and the option that sets it: ``--set``
#: and a sweep axis take tunables only (a sweep along ``iterations``,
#: ``num_fragments`` or ``seed`` sets the knob itself).
_KNOB_OPTIONS = {
    "executor": "executor",
    "iterations": "iterations",
    "num_fragments": "fragments",
    "seed": "seed",
    "stepping": "stepping",
    "workload": "workload",
    "faults": "faults",
    "quorum": "quorum",
    "detect_factor": "detect_factor",
}


def _knobs(args: argparse.Namespace) -> Dict[str, object]:
    """The per-run knobs of ``run``/``sweep`` as ``ScenarioSpec.run``
    arguments; an unset one is ``None``, the body's default."""
    knobs = {knob: getattr(args, option) for knob, option in _KNOB_OPTIONS.items()}
    knobs["executor"] = executor_from_name(args.executor, workers=args.workers)
    return knobs


# ---------------------------------------------------------------------- #
# subcommands
# ---------------------------------------------------------------------- #
def _cmd_list(args: argparse.Namespace) -> int:
    if args.family is not None and args.family not in families():
        print(
            f"unknown family {args.family!r}; available: {', '.join(families())}",
            file=sys.stderr,
        )
        return 2
    specs = all_scenarios(family=args.family)
    listing = []
    current_family = None
    for spec in specs:
        if spec.family != current_family:
            current_family = spec.family
            print(f"family {current_family}:")
        print(f"  {spec.describe()}")
        defaults = spec.defaults()
        listing.append(
            {
                "name": spec.name,
                "family": spec.family,
                "kind": spec.kind,
                "description": spec.description,
                **{k: defaults[k] for k in CAMPAIGN_PARAMS if k in defaults},
            }
        )
    _write_json(args.json, {"command": "list", "scenarios": listing})
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        spec, overrides, knobs = _prologue(args)
        before = METRICS.snapshot()
        summary = spec.run(**{**knobs, **overrides})
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    metrics = METRICS.snapshot().delta_since(before)
    print(spec.format(summary))
    _write_json(
        args.json,
        {
            "command": "run",
            **jsonable_summary(summary),
            "metrics": metrics.jsonable(),
        },
    )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    values = _parse_value(args.values)
    if not isinstance(values, tuple):
        values = (values,)
    param = args.param.replace("-", "_")
    try:
        spec, overrides, knobs = _prologue(args, param, values)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    defaults = spec.defaults()
    rows: List[Dict[str, object]] = []
    print(f"sweep {spec.name} over {param} = {list(values)}")
    for value in values:
        before = METRICS.snapshot()
        try:
            summary = spec.run(**{**knobs, **overrides,
                                  param: _fit(value, defaults.get(param))})
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        row = jsonable_summary(summary)
        row["metrics"] = METRICS.snapshot().delta_since(before).jsonable()
        row[param] = value
        rows.append(row)
        cells = [f"{param}={value}"]
        for key in _SWEEP_COLUMNS:
            if key in row and isinstance(row[key], (int, float)):
                cells.append(f"{key}={row[key]:.4g}")
        print("  " + "  ".join(cells))
    _write_json(
        args.json,
        {
            "command": "sweep",
            "scenario": spec.name,
            "param": param,
            "values": list(values),
            "rows": rows,
        },
    )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.observability import export_chrome, load_records, summarize, trace_meta

    try:
        if args.action == "export":
            if not args.chrome:
                print("trace export currently requires --chrome", file=sys.stderr)
                return 2
            out = args.output or (args.trace_file + ".chrome.json")
            count = export_chrome(args.trace_file, out)
            print(f"wrote {out} ({count} trace events); load it in "
                  f"chrome://tracing or https://ui.perfetto.dev")
            return 0
        # summary
        records = load_records(args.trace_file)
        meta = trace_meta(records)
        summary = summarize(records)
        if meta is not None:
            print(f"trace {args.trace_file}: schema {meta.get('schema')}, "
                  f"detail {meta.get('detail')}, pid {meta.get('pid')}")
        if not summary:
            print("no span/event records")
        else:
            width = max(len(name) for name in summary) + 2
            for name in sorted(summary):
                entry = summary[name]
                line = (f"  {name:<{width}} {entry['type']:<6} "
                        f"count={entry['count']}")
                if "wall_s" in entry:
                    line += f"  wall={entry['wall_s']:.4f}s"
                print(line)
        _write_json(
            args.json,
            {"command": "trace-summary", "file": args.trace_file,
             "meta": meta, "summary": summary},
        )
        return 0
    except (OSError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2


def _cmd_faults(args: argparse.Namespace) -> int:
    """Enumerate the fault-plan presets ``--faults`` accepts."""
    from repro.faults import FAULT_PRESETS

    width = max(len(name) for name in FAULT_PRESETS) + 2
    listing = []
    for name in sorted(FAULT_PRESETS):
        plan = FAULT_PRESETS[name]
        kinds = ", ".join(
            f"{kind} x{count}"
            for kind, count in sorted(plan.counts_by_kind().items())
        ) or "no injectors"
        print(f"  {name:<{width}} intensity={plan.intensity:g}  {kinds}")
        print(f"  {'':<{width}} {plan.description or '(empty plan)'}")
        listing.append(
            {
                "name": name,
                "description": plan.description,
                "injectors": plan.actor_count,
                "kinds": plan.counts_by_kind(),
                "intensity": plan.intensity,
            }
        )
    _write_json(args.json, {"command": "faults-list", "presets": listing})
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    """Print the metric catalogue (the names every run records under)."""
    width = max(len(name) for name in METRIC_CATALOGUE) + 2
    listing = []
    for name, description in sorted(METRIC_CATALOGUE.items()):
        print(f"  {name:<{width}} {description}")
        listing.append({"name": name, "description": description})
    _write_json(args.json, {"command": "metrics", "catalogue": listing})
    return 0


# ---------------------------------------------------------------------- #
# parser
# ---------------------------------------------------------------------- #
def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of BitTorrent-based bandwidth tomography (SC 2012)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--iterations", type=int, default=None,
                       help="measurement iterations (default: scenario's)")
        p.add_argument("--fragments", type=int, default=None,
                       help="fragments per broadcast (default: scenario's)")
        p.add_argument("--seed", type=int, default=None,
                       help="experiment seed (default: scenario's)")
        p.add_argument("--per-site", type=int, default=None,
                       help="nodes per site, for scenarios that scale by site")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="extra scenario tunable (repeatable); "
                            "comma-separated values parse as lists")
        p.add_argument("--executor", choices=EXECUTOR_NAMES, default="serial",
                       help="campaign backend (process = fan out over cores; "
                            "records are bit-identical to serial)")
        p.add_argument("--stepping", choices=STEPPING_MODES, default=None,
                       help="swarm control-loop policy (event = jump between "
                            "state changes; results are bit-identical to "
                            "fixed, see docs/simulation.md)")
        p.add_argument("--workload", choices=WORKLOAD_NAMES, default=None,
                       help="run the measurement campaign inside a multi-"
                            "tenant interference workload (concurrent "
                            "broadcasts, cross traffic, churn, capacity "
                            "drift on one shared clock; docs/workloads.md)")
        p.add_argument("--faults", choices=FAULT_NAMES, default=None,
                       help="inject a deterministic fault plan into every "
                            "measurement iteration (link failures, route "
                            "flaps, tracker outages, tenant cycling; "
                            "docs/faults.md)")
        p.add_argument("--quorum", type=int, default=None,
                       help="proceed with >=k surviving iterations instead "
                            "of aborting on the first failed one (the "
                            "summary is then flagged degraded)")
        p.add_argument("--detect-factor", type=float, default=None,
                       help="duration-spike ratio over the rolling baseline "
                            "that counts as a detected failure (fault-"
                            "injection scenarios; must exceed 1.0)")
        p.add_argument("--workers", type=int, default=None,
                       help="worker processes for --executor process")
        p.add_argument("--trace", metavar="PATH", default=None,
                       help="write a structured telemetry trace (JSONL) of "
                            "the run to PATH, pool workers' records included "
                            "(docs/observability.md)")
        p.add_argument("--trace-detail", choices=TRACE_DETAILS, default=None,
                       help="trace verbosity for --trace: summary (default) "
                            "= per-broadcast/phase records, full = per-step "
                            "jumps, conversion passes, dispatches (bigger "
                            "files)")
        p.add_argument("--json", metavar="PATH", default=None,
                       help="also write a machine-readable record to PATH")

    list_parser = sub.add_parser("list", help="list the registered scenarios")
    list_parser.add_argument("--family", default=None,
                             help="only one scenario family")
    list_parser.add_argument("--json", metavar="PATH", default=None,
                             help="also write a machine-readable record to PATH")

    run_parser = sub.add_parser("run", help="run one registered scenario")
    run_parser.add_argument("scenario", help="scenario name (see `repro list`)")
    add_common(run_parser)

    sweep_parser = sub.add_parser(
        "sweep", help="run a scenario across a parameter grid"
    )
    sweep_parser.add_argument("scenario", help="scenario name (see `repro list`)")
    sweep_parser.add_argument("--param", required=True,
                              help="name of the parameter to sweep")
    sweep_parser.add_argument("--values", required=True,
                              help="comma-separated parameter values")
    add_common(sweep_parser)

    trace_parser = sub.add_parser(
        "trace", help="consume a telemetry trace written with --trace"
    )
    trace_parser.add_argument("action", choices=("export", "summary"),
                              help="export = convert to another format, "
                                   "summary = per-record-name rollup")
    trace_parser.add_argument("trace_file", help="trace JSONL file to read")
    trace_parser.add_argument("--chrome", action="store_true",
                              help="export to the Chrome trace-event format "
                                   "(chrome://tracing / Perfetto)")
    trace_parser.add_argument("-o", "--output", default=None,
                              help="export destination (default: "
                                   "<trace>.chrome.json)")
    trace_parser.add_argument("--json", metavar="PATH", default=None,
                              help="also write the summary to PATH")

    metrics_parser = sub.add_parser(
        "metrics", help="print the metric catalogue runs record into"
    )
    metrics_parser.add_argument("--json", metavar="PATH", default=None,
                                help="also write the catalogue to PATH")

    faults_parser = sub.add_parser(
        "faults", help="inspect the fault-plan presets --faults accepts"
    )
    faults_parser.add_argument("action", choices=("list",),
                               help="list = enumerate the registered presets")
    faults_parser.add_argument("--json", metavar="PATH", default=None,
                               help="also write the listing to PATH")

    return parser


_COMMANDS = {
    "list": _cmd_list,
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "trace": _cmd_trace,
    "metrics": _cmd_metrics,
    "faults": _cmd_faults,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point used by ``python -m repro`` and the console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = _COMMANDS[args.command]
    code = 1
    try:
        code = handler(args)
        return code
    finally:
        # A --trace sink must be complete on exit whatever path the command
        # took; close() is a no-op when tracing was never enabled.
        TRACER.close()
        part = getattr(args, "trace_part", None)
        if part is not None:
            if code == 2:
                os.remove(part)
            else:
                os.replace(part, args.trace)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
