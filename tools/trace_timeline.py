#!/usr/bin/env python3
"""Validator / renderer for a run directory's timeline.json.

The bench drivers (``--run-dir DIR`` writes ``DIR/timeline.json``)
serialize their profile trees as Chrome Trace Event Format JSON — the
format Perfetto
(https://ui.perfetto.dev) and chrome://tracing open directly::

    {"traceEvents": [
       {"name": "process_name", "ph": "M", "pid": 0, "tid": 0,
        "args": {"name": "mcopt aggregate profile"}},
       {"name": "figure1", "cat": "profile", "ph": "X", "pid": 0,
        "tid": 0, "ts": 0.000, "dur": 71627.733,
        "args": {"calls": 360, "ticks": 216000}}],
     "displayTimeUnit": "ms"}

Layout semantics (see src/obs/timeline.hpp): a span's horizontal *extent*
is real accumulated wall time; its horizontal *position* is synthetic
sequential packing, because a ProfileNode aggregates every call to a
scope.  That layout still guarantees the renderable-nesting invariant
this tool checks: on any (pid, tid) lane, spans either nest or are
disjoint — a child never spills past its parent.

* ``--validate``: strict shape check (traceEvents array, required keys
  per phase, non-negative ts/dur, metadata args, lane nesting).  Exit 1
  on the first invalid file; CI runs this on a traced smoke export.
* ``--summary``: per-name table of call counts, total and self wall time
  — a flat profile readout without opening a UI.
* ``--self-test``: plants one violation of each class in a synthetic
  trace and requires the validator to catch all of them.

Exit status: 0 clean, 1 invalid trace, 2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict

# Event phases the exporter emits: complete spans and metadata.
KNOWN_PHASES = {"X", "M"}
METADATA_NAMES = {"process_name", "thread_name"}

# Slack for float microsecond arithmetic in the nesting check.
EPSILON_US = 0.002


def _is_num(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_index(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def validate_event(i: int, event) -> list[str]:
    """Shape violations for one traceEvents entry (empty if clean)."""
    where = f"traceEvents[{i}]"
    if not isinstance(event, dict):
        return [f"{where}: not a JSON object"]
    errors = []
    name = event.get("name")
    if not isinstance(name, str) or not name:
        errors.append(f"{where}: 'name' must be a non-empty string")
    ph = event.get("ph")
    if ph not in KNOWN_PHASES:
        errors.append(f"{where}: 'ph' must be one of {sorted(KNOWN_PHASES)}, "
                      f"got {ph!r}")
        return errors
    for key in ("pid", "tid"):
        if not _is_index(event.get(key)):
            errors.append(f"{where}: '{key}' must be a non-negative integer")
    if ph == "X":
        for key in ("ts", "dur"):
            value = event.get(key)
            if not _is_num(value):
                errors.append(f"{where}: 'X' event needs numeric '{key}'")
            elif value < 0:
                errors.append(f"{where}: '{key}' must be >= 0, got {value}")
        if not isinstance(event.get("cat"), str):
            errors.append(f"{where}: 'X' event needs a string 'cat'")
    else:  # "M"
        if isinstance(name, str) and name not in METADATA_NAMES:
            errors.append(f"{where}: metadata name {name!r} not in "
                          f"{sorted(METADATA_NAMES)}")
        args = event.get("args")
        if not isinstance(args, dict) or not isinstance(args.get("name"),
                                                        str):
            errors.append(f"{where}: metadata needs args.name (string)")
    return errors


def check_lane_nesting(events) -> list[str]:
    """On each (pid, tid) lane, spans must nest or be disjoint."""
    lanes = defaultdict(list)
    for i, event in enumerate(events):
        if isinstance(event, dict) and event.get("ph") == "X" \
                and _is_num(event.get("ts")) and _is_num(event.get("dur")):
            lanes[(event.get("pid"), event.get("tid"))].append((i, event))
    errors = []
    for lane, spans in sorted(lanes.items(), key=lambda kv: str(kv[0])):
        spans.sort(key=lambda pair: (pair[1]["ts"], -pair[1]["dur"]))
        stack = []  # (index, ts, end) of open ancestors
        for i, event in spans:
            ts, end = event["ts"], event["ts"] + event["dur"]
            while stack and ts >= stack[-1][2] - EPSILON_US:
                stack.pop()
            if stack and end > stack[-1][2] + EPSILON_US:
                j = stack[-1][0]
                errors.append(
                    f"lane pid={lane[0]} tid={lane[1]}: traceEvents[{i}] "
                    f"'{event.get('name')}' [{ts:.3f}, {end:.3f}) spills "
                    f"past enclosing traceEvents[{j}] (ends "
                    f"{stack[-1][2]:.3f}) — spans must nest or be disjoint")
            stack.append((i, ts, end))
    return errors


def validate_doc(doc) -> list[str]:
    if not isinstance(doc, dict):
        return ["top level: not a JSON object"]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["top level: missing 'traceEvents' array"]
    errors = []
    for i, event in enumerate(events):
        errors.extend(validate_event(i, event))
        if len(errors) >= 20:
            return errors
    errors.extend(check_lane_nesting(events))
    return errors


def validate(path: str) -> int:
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    errors = validate_doc(doc)
    if errors:
        for error in errors[:20]:
            print(f"{path}: {error}", file=sys.stderr)
        print(f"{path}: INVALID ({len(errors)} violation(s))",
              file=sys.stderr)
        return 1
    events = doc["traceEvents"]
    spans = sum(1 for e in events if e.get("ph") == "X")
    lanes = {(e.get("pid"), e.get("tid"))
             for e in events if e.get("ph") == "X"}
    print(f"{path}: OK ({spans} spans on {len(lanes)} lane(s), "
          f"{len(events) - spans} metadata records)")
    return 0


def print_table(headers, rows):
    widths = [len(h) for h in headers]
    str_rows = [[str(c) for c in row] for row in rows]
    for row in str_rows:
        widths = [max(w, len(c)) for w, c in zip(widths, row)]
    def fmt(cells):
        return "  ".join(c.rjust(w) for c, w in zip(cells, widths))
    print(fmt(headers))
    print(fmt(["-" * w for w in widths]))
    for row in str_rows:
        print(fmt(row))
    print()


def summarize(path: str) -> int:
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    errors = validate_doc(doc)
    if errors:
        print(f"{path}: refusing to summarize an invalid trace "
              f"(run --validate)", file=sys.stderr)
        return 1
    events = doc["traceEvents"]
    # Self time = dur minus direct children, via the same nesting stack.
    lanes = defaultdict(list)
    for event in events:
        if event.get("ph") == "X":
            lanes[(event["pid"], event["tid"])].append(event)
    per_name = defaultdict(lambda: {"spans": 0, "calls": 0, "total": 0.0,
                                    "self": 0.0})
    for spans in lanes.values():
        spans.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []  # (name, end) of open ancestors
        for event in spans:
            ts, end = event["ts"], event["ts"] + event["dur"]
            while stack and ts >= stack[-1][1] - EPSILON_US:
                stack.pop()
            stats = per_name[event["name"]]
            stats["spans"] += 1
            stats["calls"] += event.get("args", {}).get("calls", 0)
            stats["total"] += event["dur"]
            stats["self"] += event["dur"]
            if stack:
                per_name[stack[-1][0]]["self"] -= event["dur"]
            stack.append((event["name"], end))
    print(f"{path}: {sum(s['spans'] for s in per_name.values())} spans, "
          f"{len(lanes)} lane(s)")
    rows = []
    for name, stats in sorted(per_name.items(),
                              key=lambda kv: -kv[1]["self"]):
        rows.append([name, stats["spans"], stats["calls"],
                     f"{stats['total'] / 1e3:.3f}",
                     f"{max(stats['self'], 0.0) / 1e3:.3f}"])
    print_table(["scope", "spans", "calls", "total ms", "self ms"], rows)
    return 0


def self_test() -> int:
    """The validator must pass a clean trace and catch planted breakage."""
    clean = {
        "traceEvents": [
            {"name": "process_name", "ph": "M", "pid": 0, "tid": 0,
             "args": {"name": "mcopt aggregate profile"}},
            {"name": "thread_name", "ph": "M", "pid": 0, "tid": 0,
             "args": {"name": "all runs"}},
            {"name": "figure1", "cat": "profile", "ph": "X", "pid": 0,
             "tid": 0, "ts": 0.0, "dur": 100.0,
             "args": {"calls": 3, "ticks": 600}},
            {"name": "stage", "cat": "profile", "ph": "X", "pid": 0,
             "tid": 0, "ts": 0.0, "dur": 60.0, "args": {"calls": 9}},
            {"name": "stage", "cat": "profile", "ph": "X", "pid": 0,
             "tid": 0, "ts": 60.0, "dur": 40.0, "args": {"calls": 6}},
            {"name": "figure1", "cat": "profile", "ph": "X", "pid": 1,
             "tid": 1, "ts": 100.0, "dur": 50.0, "args": {"calls": 1}},
        ],
        "displayTimeUnit": "ms",
    }

    def mutated(mutate):
        doc = json.loads(json.dumps(clean))
        mutate(doc)
        return doc

    def drop_events(doc):
        del doc["traceEvents"]

    def bad_phase(doc):
        doc["traceEvents"][2]["ph"] = "B"

    def negative_dur(doc):
        doc["traceEvents"][3]["dur"] = -1.0

    def missing_ts(doc):
        del doc["traceEvents"][2]["ts"]

    def bad_pid(doc):
        doc["traceEvents"][2]["pid"] = -1

    def metadata_without_name(doc):
        doc["traceEvents"][0]["args"] = {}

    def child_spills(doc):
        doc["traceEvents"][4]["dur"] = 80.0   # 60..140 vs parent 0..100

    cases = [
        ("missing traceEvents", drop_events),
        ("unknown phase", bad_phase),
        ("negative dur", negative_dur),
        ("missing ts", missing_ts),
        ("negative pid", bad_pid),
        ("metadata without args.name", metadata_without_name),
        ("child spills past parent", child_spills),
    ]
    failures = []
    if validate_doc(clean):
        failures.append(f"clean trace rejected: {validate_doc(clean)}")
    for label, mutate in cases:
        if not validate_doc(mutated(mutate)):
            failures.append(f"{label}: violation not caught")
    if failures:
        for failure in failures:
            print(f"self-test: {failure}", file=sys.stderr)
        print("self-test: FAILED", file=sys.stderr)
        return 1
    print(f"self-test: OK ({len(cases) + 1} scenarios)")
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("traces", nargs="*",
                        help="run-directory timeline.json file(s)")
    parser.add_argument("--validate", action="store_true",
                        help="strict shape check; exit 1 on any violation")
    parser.add_argument("--summary", action="store_true",
                        help="per-scope table of span counts and self time")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the validator catches planted breakage")
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()
    if not args.traces:
        parser.error("no timeline files given (or use --self-test)")
    status = 0
    for path in args.traces:
        try:
            if args.summary:
                status = max(status, summarize(path))
            else:
                status = max(status, validate(path))
        except (OSError, json.JSONDecodeError) as err:
            print(f"{path}: {err}", file=sys.stderr)
            status = max(status, 2)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
