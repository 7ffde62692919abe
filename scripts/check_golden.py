#!/usr/bin/env python3
"""Check one command's stdout against a committed SHA-256 golden.

Usage:
  check_golden.py SHA256 COMMAND [ARGS...]

Runs COMMAND, hashes its raw stdout, and fails (exit 1) if the command exits
nonzero or the hash differs from SHA256; either way both hashes are printed.
stderr passes through untouched. bench/golden.txt holds the committed hashes,
one ctest case per line; re-baselining is an edit of that file.
"""

import hashlib
import subprocess
import sys


def main(argv: list[str]) -> int:
    if len(argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    expected, command = argv[1], argv[2:]
    run = subprocess.run(command, stdout=subprocess.PIPE, check=False)
    actual = hashlib.sha256(run.stdout).hexdigest()
    print(f"expected {expected}\nactual   {actual}\nexit     {run.returncode}")
    if run.returncode != 0:
        print(f"FAIL: {' '.join(command)} exited {run.returncode}")
        return 1
    if actual != expected:
        print(f"FAIL: stdout of {' '.join(command)} does not match its golden")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
