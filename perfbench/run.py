#!/usr/bin/env python3
"""Entry point of the Siloz end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--workers N]

Builds perfbench/ (the src/ libraries plus one driver) with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench, relative to the
repository root), runs the driver, and prints its output. The last line of
stdout is the result object. With --trace 1 the driver writes one Chrome
trace per suite section; this script folds them into self time per span
name (trace_fold.py) and adds the span-derived metrics to the result.

Flags are strict: an unknown flag, a malformed number or an unknown workload
exits nonzero with a message, before anything is built or run.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import trace_fold  # noqa: E402

WORKLOADS = ("perf_grid", "hammer")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170

# Per-layer metrics read off the folded fleet trace: the program's own
# hypervisor spans. They include hypervisor lock wait.
SPAN_METRICS = {
    "siloz.create_span_ms": "hv.CreateVm",
    "siloz.migrate_span_ms": "hv.MigrateVm",
}


def uint_flag(low, high):
    def parse(text):
        if not re.fullmatch(r"[0-9]+", text) or not low <= int(text) <= high:
            raise argparse.ArgumentTypeError(f"'{text}' is not an integer in [{low}, {high}]")
        return int(text)
    return parse


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", allow_abbrev=False,
                                     description="Siloz end-to-end benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=uint_flag(0, 2**64 - 1))
    parser.add_argument("--seconds", required=True, type=uint_flag(1, 3600))
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--workers", type=uint_flag(1, 1024),
                        help="override the workload's fixed worker count")
    return parser.parse_args(argv)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build(directory):
    """Configures (once) and builds the driver; returns its path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", directory, "-j", jobs]]
    if not os.path.exists(os.path.join(directory, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", directory,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    for step in steps:
        # Build chatter goes to stderr: stdout carries only the results.
        subprocess.run(step, check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return os.path.join(directory, "siloz_perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def fold_traces(trace_dir, result):
    """Folds every section trace; adds the span-derived metrics to `result`."""
    summary = {}
    for name in sorted(os.listdir(trace_dir)):
        folded = trace_fold.fold(trace_fold.load_events(os.path.join(trace_dir, name)))
        top = sorted(folded.items(), key=lambda kv: -kv[1]["self_us"])[:10]
        summary[name[:-len(".json")]] = {
            span: {"count": e["count"], "self_ms": e["self_us"] / 1e3} for span, e in top}
        if name == "fleet.json":
            for metric, span in SPAN_METRICS.items():
                self_us = folded.get(span, {}).get("self_us", 0)
                result["metrics"][metric] = {"value": self_us / 1e3, "unit": "ms"}
    moves = "none (the fleet_churn workload was dropped; README.md)"
    print(json.dumps({"trace_fold": summary,
                      "layers": {m: dict(result["metrics"][m], moves=moves)
                                 for m in SPAN_METRICS}}))


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        binary = build(build_dir())
    except (OSError, subprocess.SubprocessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    if args.workers is not None:
        command += ["--workers", str(args.workers)]
    trace_dir = None
    if args.trace == "1":
        trace_dir = os.path.join(build_dir(), "traces", f"{args.workload}-{args.seed}")
        shutil.rmtree(trace_dir, ignore_errors=True)
        os.makedirs(trace_dir)
        command += ["--trace-dir", trace_dir]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: driver exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if run.returncode != 0:
        print(f"perfbench: driver exited with {run.returncode}", file=sys.stderr)
        return 1

    lines = run.stdout.splitlines()
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    if trace_dir is not None:
        fold_traces(trace_dir, result)
    missing = expected_metrics(args.trace == "1") ^ set(result["metrics"])
    if missing:
        print(f"perfbench: metrics differ from BENCHMARK.json: {sorted(missing)}",
              file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
