#!/usr/bin/env python3
"""Check one command's stdout (and model metrics) against committed SHA-256 goldens.

Usage:
  check_golden.py [--exit CODE] [--model SHA256] SHA256 COMMAND [ARGS...]

Runs COMMAND, hashes its raw stdout, and fails (exit 1) if the command exits
with a code other than CODE (0 when not given) or the hash differs from
SHA256. A COMMAND that passes `--metrics-out FILE` must come with --model:
the checker then hashes the "model" section of FILE, canonicalised as
json.dumps(model, sort_keys=True, separators=(",", ":")), and fails unless it
equals the --model hash. FILE is deleted before the run, so a stale file
never passes. Every hash and the exit code are printed either way; stderr
passes through untouched. bench/golden.txt holds the committed hashes, one
ctest case per line; re-baselining is an edit of that file.
"""

import hashlib
import json
import os
import subprocess
import sys


def model_hash(path: str) -> str:
    with open(path) as f:
        model = json.load(f)["model"]
    canonical = json.dumps(model, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def main(argv: list[str]) -> int:
    args = argv[1:]
    options = {"--exit": "0", "--model": None}
    while len(args) > 1 and args[0] in options:
        options[args[0]], args = args[1], args[2:]
    if len(args) < 2 or not options["--exit"].isdigit():
        print(__doc__, file=sys.stderr)
        return 2
    expected_exit, expected_model = int(options["--exit"]), options["--model"]
    expected, command = args[0], args[1:]
    line = " ".join(command)

    metrics = None
    if "--metrics-out" in command[:-1]:
        metrics = command[command.index("--metrics-out") + 1]
    if (metrics is None) != (expected_model is None):
        print(f"FAIL: {line}: a golden line passes --metrics-out exactly when it carries model=")
        return 1
    if metrics is not None and os.path.exists(metrics):
        os.remove(metrics)

    run = subprocess.run(command, stdout=subprocess.PIPE, check=False)
    actual = hashlib.sha256(run.stdout).hexdigest()
    print(f"expected {expected}\nactual   {actual}\nexit     {run.returncode}")
    if run.returncode != expected_exit:
        print(f"FAIL: {line} exited {run.returncode}, expected {expected_exit}")
        return 1
    if actual != expected:
        print(f"FAIL: stdout of {line} does not match its golden")
        return 1
    if metrics is None:
        return 0
    if not os.path.exists(metrics):
        print(f"FAIL: {line} wrote no {metrics}")
        return 1
    actual_model = model_hash(metrics)
    print(f"model expected {expected_model}\nmodel actual   {actual_model}")
    if actual_model != expected_model:
        print(f"FAIL: the model metrics in {metrics} do not match the golden; "
              "scripts/diff_model_metrics.py against a run of the parent commit "
              "names each metric that moved")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
