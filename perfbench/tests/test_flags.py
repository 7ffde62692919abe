"""Strict flags: bad arguments exit nonzero with a message and print no result.

Covers run.py always, and the compiled driver when it has been built (by any
run.py invocation, or at $PERFBENCH_BIN).

    python3 -m unittest discover -s perfbench/tests
"""

import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(HERE)
RUN_PY = os.path.join(HERE, "run.py")

GOOD = ["--workload", "hammer", "--seed", "1", "--seconds", "1", "--trace", "0"]


def with_flag(flag, value):
    args = list(GOOD)
    args[args.index(flag) + 1] = value
    return args


BAD = {
    "unknown flag": GOOD + ["--threadz", "4"],
    "abbreviated flag": ["--work", "hammer"] + GOOD[2:],
    "unknown workload": with_flag("--workload", "fig4"),
    "seed not a number": with_flag("--seed", "abc"),
    "negative seed": with_flag("--seed", "-1"),
    "fractional seconds": with_flag("--seconds", "1.5"),
    "zero seconds": with_flag("--seconds", "0"),
    "seconds with underscore": with_flag("--seconds", "1_0"),
    "trace not 0 or 1": with_flag("--trace", "yes"),
    "missing seed": GOOD[:2] + GOOD[4:],
    "workers not a number": GOOD + ["--workers", "four"],
    "zero workers": GOOD + ["--workers", "0"],
}


def driver_binary():
    explicit = os.environ.get("PERFBENCH_BIN")
    if explicit:
        return explicit
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench", "siloz_perfbench")


class StrictFlagsTest(unittest.TestCase):
    def assert_refused(self, command, case):
        run = subprocess.run(command, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(run.returncode, 0, case)
        self.assertEqual(run.stdout, "", case)
        self.assertTrue(run.stderr.strip(), f"{case}: no message")

    def test_run_py_refuses_bad_arguments(self):
        for case, args in BAD.items():
            with self.subTest(case=case):
                self.assert_refused([sys.executable, RUN_PY] + args, case)

    def test_driver_refuses_bad_arguments(self):
        binary = driver_binary()
        if not os.path.exists(binary):
            self.skipTest(f"driver not built at {binary}")
        for case, args in BAD.items():
            with self.subTest(case=case):
                self.assert_refused([binary] + args, case)
        self.assert_refused([binary] + GOOD + ["--trace-dir", "x"], "trace dir without trace")
        self.assert_refused([binary] + with_flag("--trace", "1"), "trace without trace dir")


if __name__ == "__main__":
    unittest.main()
