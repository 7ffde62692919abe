#!/usr/bin/env python3
"""Check one command's stdout against a committed SHA-256 golden.

Usage:
  check_golden.py [--exit CODE] SHA256 COMMAND [ARGS...]

Runs COMMAND, hashes its raw stdout, and fails (exit 1) if the command exits
with a code other than CODE (0 when not given) or the hash differs from
SHA256; either way both hashes and the exit code are printed. stderr passes
through untouched. bench/golden.txt holds the committed hashes, one ctest
case per line; re-baselining is an edit of that file.
"""

import hashlib
import subprocess
import sys


def main(argv: list[str]) -> int:
    args = argv[1:]
    expected_exit = 0
    if args[:1] == ["--exit"]:
        if len(args) < 2 or not args[1].isdigit():
            print(__doc__, file=sys.stderr)
            return 2
        expected_exit, args = int(args[1]), args[2:]
    if len(args) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    expected, command = args[0], args[1:]
    run = subprocess.run(command, stdout=subprocess.PIPE, check=False)
    actual = hashlib.sha256(run.stdout).hexdigest()
    print(f"expected {expected}\nactual   {actual}\nexit     {run.returncode}")
    if run.returncode != expected_exit:
        print(f"FAIL: {' '.join(command)} exited {run.returncode}, expected {expected_exit}")
        return 1
    if actual != expected:
        print(f"FAIL: stdout of {' '.join(command)} does not match its golden")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
