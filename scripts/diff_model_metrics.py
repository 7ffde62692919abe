#!/usr/bin/env python3
"""Diff the model-domain sections of two metrics JSON files.

The determinism contract (DESIGN.md §9) says model-domain metric *values* are
thread-count-invariant: a serial and a parallel run of the same seeded
configuration must export identical "model" sections. The "sched" section
(pool task counts) measures the host and legitimately differs, so it is
ignored. The goldens pin each model section by one hash (check_golden.py
--model); when one fails, this script names the metrics that moved.

Usage: diff_model_metrics.py A.json B.json
Exits 0 when the model sections match, 1 with a per-key report otherwise.
Only the standard library is used.
"""

import json
import sys


def load_model(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != 1:
        sys.exit(f"{path}: unsupported metrics schema {doc.get('schema')!r}")
    model = doc.get("model")
    if model is None:
        sys.exit(f"{path}: no 'model' section")
    return model


def diff_section(kind, a, b):
    """Returns a list of human-readable differences for one metric kind."""
    problems = []
    for name in sorted(set(a) | set(b)):
        if name not in a:
            problems.append(f"{kind} '{name}': only in B (= {b[name]})")
        elif name not in b:
            problems.append(f"{kind} '{name}': only in A (= {a[name]})")
        elif a[name] != b[name]:
            problems.append(f"{kind} '{name}': A={a[name]} B={b[name]}")
    return problems


def main():
    if len(sys.argv) != 3:
        sys.exit(f"usage: {sys.argv[0]} A.json B.json")
    path_a, path_b = sys.argv[1], sys.argv[2]
    model_a = load_model(path_a)
    model_b = load_model(path_b)

    problems = []
    for kind in ("counters", "gauges", "histograms"):
        problems += diff_section(kind, model_a.get(kind, {}), model_b.get(kind, {}))

    if problems:
        print(f"model metrics differ between {path_a} (A) and {path_b} (B):")
        for problem in problems:
            print(f"  {problem}")
        sys.exit(1)
    total = sum(len(model_a.get(kind, {})) for kind in ("counters", "gauges", "histograms"))
    print(f"model metrics identical ({total} metrics compared; sched section ignored)")


if __name__ == "__main__":
    main()
