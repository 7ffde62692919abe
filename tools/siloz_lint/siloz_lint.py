#!/usr/bin/env python3
"""siloz-lint: project-invariant static analyzer for the siloz tree.

Checks the five invariants the repo's history shows are easy to break and
expensive to debug after the fact (see DESIGN.md §12 for the catalog):

  unchecked-status      discarded Status/Result call results
  map-bracket-probe     phantom-inserting operator[] reads on bookkeeping maps
  nondet-iteration      unordered iteration feeding reports/metrics/floats
  fault-point-coverage  resource ops unreachable by the fault sweep
  raw-nondeterminism    raw entropy/clock use outside src/base/rng

Usage:
  tools/siloz_lint/siloz_lint.py                     # lint src/ + tools/
  tools/siloz_lint/siloz_lint.py src/siloz tests/x.cc
  tools/siloz_lint/siloz_lint.py --format=json

Exit codes: 0 clean, 1 findings reported, 2 usage or internal error.
Suppress a deliberate pattern with a trailing or preceding-line comment:
  // siloz-lint: allow(rule-name): why this is safe here
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from engine import Config, Engine, discover_files
from reporters import to_json, to_text
from rules import ALL_RULES, RULE_NAMES


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="siloz-lint", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "paths", nargs="*",
        help="files or directories to lint (default: config 'paths')",
    )
    parser.add_argument(
        "--root", default=None,
        help="repo root (default: two levels above this script)",
    )
    parser.add_argument("--config", default=None, help="config JSON path")
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        dest="output_format",
    )
    parser.add_argument(
        "--rule", action="append", default=None, choices=RULE_NAMES,
        help="run only this rule (repeatable)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print rule names and exit"
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        print("\n".join(RULE_NAMES))
        return 0

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )
    try:
        config = Config.load(args.config, root)
    except (OSError, ValueError) as err:
        print(f"siloz-lint: bad config: {err}", file=sys.stderr)
        return 2

    rules = ALL_RULES
    if args.rule:
        wanted = set(args.rule)
        rules = [r for r in ALL_RULES if r.name in wanted]

    paths = discover_files(config, args.paths)
    if not paths:
        print("siloz-lint: no input files", file=sys.stderr)
        return 2

    findings = Engine(rules, config).run(paths)
    out = to_json(findings) if args.output_format == "json" else to_text(findings)
    sys.stdout.write(out)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
