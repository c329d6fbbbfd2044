"""Trace-file consumers: Chrome trace-event export and summaries.

The tracer (:mod:`repro.observability.tracer`) writes one JSON object per
line.  This module turns such a file into

* the **Chrome trace-event format** understood by ``chrome://tracing`` and
  https://ui.perfetto.dev (``repro trace export --chrome``), and
* a compact **summary** (record counts, span time per name) backing
  ``repro trace summary``.

Clock mapping in the Chrome export: every record keeps its originating
``pid``; wall-time spans become complete events (``ph: "X"``) on thread 0
with microsecond ``ts``/``dur`` relative to the file's first ``meta``
record, while sim-time events become instant events (``ph: "i"``) on a
dedicated thread 1 whose timeline is *simulation* microseconds — the two
clocks share one view but never mix on a track.  Each block of a pooled
trace counts its ``wall_ts`` from its own ``meta``, so its wall-clock
records are shifted by that ``meta``'s ``wall_start`` minus the first
one's: worker tracks line up with the parent's.  Thread-name metadata
records label the tracks.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional

#: Chrome "thread" ids used to keep the two clocks on separate tracks.
WALL_TID = 0
SIM_TID = 1


def load_records(path: str) -> List[dict]:
    """Parse a trace JSONL file (blank lines tolerated)."""
    records = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{line_no}: not a JSON trace record: {exc}"
                ) from exc
    return records


def to_chrome(records: Iterable[dict]) -> Dict[str, object]:
    """Convert parsed trace records to a Chrome trace-event object.

    Returns the object form ``{"traceEvents": [...]}``; every emitted event
    carries the required ``ph``/``ts``/``pid``/``tid`` keys with timestamps
    in microseconds.
    """
    events: List[dict] = []
    named_pids = set()
    origin: Optional[float] = None
    # Per pid, the wall-clock offset of its current block from the origin.
    offsets: Dict[int, float] = {}
    for record in records:
        kind = record.get("type")
        pid = int(record.get("pid", 0))
        if kind == "meta":
            if origin is None:
                origin = record["wall_start"]
            offsets[pid] = record["wall_start"] - origin
        offset = offsets.get(pid, 0.0)
        if pid not in named_pids:
            named_pids.add(pid)
            for tid, label in ((WALL_TID, "wall"), (SIM_TID, "sim")):
                events.append(
                    {
                        "name": "thread_name",
                        "ph": "M",
                        "pid": pid,
                        "tid": tid,
                        "args": {"name": label},
                    }
                )
        if kind == "span":
            events.append(
                {
                    "name": record["name"],
                    "ph": "X",
                    "pid": pid,
                    "tid": WALL_TID,
                    "ts": (record["wall_ts"] + offset) * 1e6,
                    "dur": record["wall_dur"] * 1e6,
                    "args": record.get("args", {}),
                }
            )
        elif kind == "event":
            sim_ts = record.get("sim_ts")
            events.append(
                {
                    "name": record["name"],
                    "ph": "i",
                    "s": "t",
                    "pid": pid,
                    "tid": SIM_TID if sim_ts is not None else WALL_TID,
                    "ts": (sim_ts if sim_ts is not None else record["wall_ts"] + offset)
                    * 1e6,
                    "args": record.get("args", {}),
                }
            )
        # meta records carry no timeline position; they are dropped here.
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def export_chrome(trace_path: str, out_path: str) -> int:
    """Write the Chrome trace-event export of ``trace_path`` to ``out_path``.

    Returns the number of trace events written (metadata records included).
    """
    chrome = to_chrome(load_records(trace_path))
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(chrome, handle)
    return len(chrome["traceEvents"])


def summarize(records: Iterable[dict]) -> Dict[str, Dict[str, object]]:
    """Per-name rollup: record counts plus total span seconds.

    Returns ``{name: {"type": ..., "count": n, ["wall_s": seconds]}}``,
    sorted consumers can render directly (``repro trace summary``).
    """
    summary: Dict[str, Dict[str, object]] = {}
    for record in records:
        kind = record.get("type")
        if kind not in ("span", "event"):
            continue
        entry = summary.setdefault(
            record["name"], {"type": kind, "count": 0}
        )
        entry["count"] = int(entry["count"]) + 1
        if kind == "span":
            entry["wall_s"] = float(entry.get("wall_s", 0.0)) + float(
                record.get("wall_dur", 0.0)
            )
    return summary


def trace_meta(records: Iterable[dict]) -> Optional[dict]:
    """The first meta record of a trace, or None for a headerless file."""
    for record in records:
        if record.get("type") == "meta":
            return record
    return None
