#!/usr/bin/env python3
"""Golden test driver for siloz-lint, wired into ctest under the `lint` label.

Cases:
  <rule>        run ONE rule over its violate+clean fixture pair and compare
                the JSON report byte-for-byte against
                tests/lint/golden/<rule>.json. The violate fixture must
                produce findings (tool exit 1) — this is the regression test
                that each check actually fires.
  suppression   the allow() comment forms must silence a real finding
                (tool exit 0, empty findings document).
  tree          the full repository must lint clean with the shipped
                .siloz-lint.json (zero unsuppressed findings).

Exit 0 on match, 1 with a diff on stderr otherwise. The goldens pin the
reporter's byte-stable ordering contract (reporters.py), so a mismatch
means either a rule regression or a deliberate schema change that must
regenerate the goldens.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
LINT = os.path.join(REPO, "tools", "siloz_lint", "siloz_lint.py")

RULE_CASES = {
    "unchecked-status": "unchecked_status",
    "map-bracket-probe": "map_bracket_probe",
    "nondet-iteration": "nondet_iteration",
    "fault-point-coverage": "fault_point_coverage",
    "raw-nondeterminism": "raw_nondeterminism",
}


def run_lint(args):
    return subprocess.run(
        [sys.executable, LINT, "--format=json"] + args,
        capture_output=True,
        text=True,
        cwd=REPO,
    )


def check_golden(case: str, proc, expect_findings: bool) -> int:
    if proc.returncode not in (0, 1):
        sys.stderr.write(f"{case}: lint crashed (exit {proc.returncode}):\n")
        sys.stderr.write(proc.stderr)
        return 1
    if expect_findings and proc.returncode != 1:
        sys.stderr.write(f"{case}: rule did not fire on its violate fixture\n")
        sys.stderr.write(proc.stdout)
        return 1
    if not expect_findings and proc.returncode != 0:
        sys.stderr.write(f"{case}: unexpected findings:\n{proc.stdout}")
        return 1
    golden_path = os.path.join(HERE, "golden", f"{case}.json")
    with open(golden_path, "r", encoding="utf-8") as f:
        golden = f.read()
    if proc.stdout != golden:
        sys.stderr.write(f"{case}: output differs from {golden_path}\n")
        sys.stderr.write(f"--- golden ---\n{golden}--- actual ---\n{proc.stdout}")
        return 1
    return 0


def main() -> int:
    if len(sys.argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    case = sys.argv[1]

    if case in RULE_CASES:
        stem = RULE_CASES[case]
        proc = run_lint(
            [
                "--root", HERE,
                "--config", os.path.join(HERE, "fixtures", "config.json"),
                "--rule", case,
                os.path.join(HERE, "fixtures", f"{stem}_violate.cc"),
                os.path.join(HERE, "fixtures", f"{stem}_clean.cc"),
            ]
        )
        return check_golden(case, proc, expect_findings=True)

    if case == "suppression":
        proc = run_lint(
            [
                "--root", HERE,
                "--config", os.path.join(HERE, "fixtures", "config.json"),
                "--rule", "map-bracket-probe",
                os.path.join(HERE, "fixtures", "suppression_demo.cc"),
            ]
        )
        return check_golden(case, proc, expect_findings=False)

    if case == "tree":
        proc = run_lint([])
        if proc.returncode != 0:
            sys.stderr.write("tree: unsuppressed findings in the repository:\n")
            sys.stderr.write(proc.stdout + proc.stderr)
            return 1
        return 0

    sys.stderr.write(f"unknown case '{case}'\n")
    return 2


if __name__ == "__main__":
    sys.exit(main())
