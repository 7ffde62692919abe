#!/usr/bin/env python3
"""Fold a Chrome trace into self time per span name.

Reads the trace-event JSON that obs::Tracer writes (complete "X" events with
"ts"/"dur" in microseconds, one "tid" per thread) and reports, for every span
name, how many spans there were, their total duration, and their self time:
each span's duration minus the part of it that its child spans on the same
thread cover. Spans on other threads never count as children, so work a
span hands to a thread pool stays in the span's self time as wall time.

    python3 perfbench/trace_fold.py TRACE.json [--top N]
"""

import argparse
import json
import sys
from collections import defaultdict


def load_events(path):
    """Complete events of a trace file, as dicts with name/ts/dur/tid."""
    with open(path, encoding="utf-8") as f:
        document = json.load(f)
    events = document["traceEvents"] if isinstance(document, dict) else document
    return [e for e in events if e.get("ph") == "X"]


def fold(events):
    """Maps span name -> {"count", "total_us", "self_us"}."""
    folded = defaultdict(lambda: {"count": 0, "total_us": 0, "self_us": 0})
    by_thread = defaultdict(list)
    for event in events:
        by_thread[(event.get("pid", 0), event.get("tid", 0))].append(event)
    for thread_events in by_thread.values():
        # Parents sort before the children they contain: earlier start first,
        # and the longer span first when two start together.
        thread_events.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []  # open spans: [name, start, end, covered_by_children]

        def close(span):
            name, start, end, covered = span
            entry = folded[name]
            entry["count"] += 1
            entry["total_us"] += end - start
            entry["self_us"] += max(0, end - start - covered)

        for event in thread_events:
            start = event["ts"]
            end = start + event["dur"]
            while stack and stack[-1][2] <= start:
                close(stack.pop())
            if stack:
                # Clip to the parent: microsecond rounding can push a child's
                # end one tick past its parent's.
                parent = stack[-1]
                parent[3] += min(end, parent[2]) - start
            stack.append([event["name"], start, end, 0])
        while stack:
            close(stack.pop())
    return dict(folded)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0], allow_abbrev=False)
    parser.add_argument("trace", help="Chrome trace-event JSON file")
    parser.add_argument("--top", type=int, default=0, help="show only the N largest self times")
    args = parser.parse_args(argv)
    rows = sorted(fold(load_events(args.trace)).items(), key=lambda kv: -kv[1]["self_us"])
    if args.top > 0:
        rows = rows[: args.top]
    print(f"{'span':48s} {'count':>8s} {'total ms':>12s} {'self ms':>12s}")
    for name, entry in rows:
        print(f"{name:48s} {entry['count']:8d} {entry['total_us'] / 1e3:12.3f} "
              f"{entry['self_us'] / 1e3:12.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
