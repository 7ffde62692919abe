#!/usr/bin/env python3
"""Checks bench_hotpath against the committed BENCH_hotpath.json baseline.

Two contracts, enforced at different strengths:

- Checksums (and iteration counts) are part of the determinism contract.
  Any mismatch against the committed baseline is a HARD FAILURE (exit 1):
  an optimization changed what the hot paths compute, not just how fast.
  The benchmark binary itself also exits nonzero if a checksum differs
  between its own repetitions; that failure is propagated. Deterministic
  side-channel fields (today: shard_requests, the per-shard request census
  of the sharded engine bench) are gated exactly the same way, and a
  benchmark appearing in the output but not in the baseline is also a hard
  failure — every bench must be baselined the commit it lands.

- Timings are advisory. Wall-clock depends on the host, so a ns/op outside
  the tolerance band (default +/-25%) prints a warning but still exits 0.
  Use the warning as a prompt to re-baseline deliberately, never silently.

The baseline file also carries a `history` section of before/after wall
clocks per optimization PR. `--append-wall NAME=MILLIS` (repeatable)
records measured figure-suite walls into the `history.one_engine`
block — `after` is set to the given value, and `before` is seeded from the
most recent prior block's `after` for the same bench when absent — then
rewrites the baseline in place. Appending is an explicit, reviewed action:
it edits a committed file. History names keep the figures' original
binary names: `bench_fig4_exec_time` is the wall of `bench_artifacts fig4`,
`bench_fig5_throughput` that of `bench_artifacts fig5`.

Usage:
  check_bench_regression.py --bench build/bench/bench_hotpath \
      --baseline BENCH_hotpath.json [--tolerance 0.25] \
      [--append-wall bench_fig4_exec_time=812 ...]   # bench_artifacts fig4 wall
"""

import argparse
import json
import subprocess
import sys

# The history block wall-clock refreshes land in (the one-engine collapse of
# the serve paths).
WALL_BLOCK = "one_engine"


def append_walls(path: str, entries: list[str]) -> None:
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    history = doc.setdefault("history", {})
    block = history.setdefault(WALL_BLOCK, {})
    block.setdefault(
        "_comment",
        [
            "Before/after collapsing the serve paths into one engine",
            "(DESIGN.md §13/§15). Walls measured by",
            "`check_bench_regression.py --append-wall`; output bytes",
            "identical throughout.",
        ],
    )
    wall_ms = block.setdefault("wall_ms", {})
    # Seed `before` from the newest older block that measured the same bench.
    prior_after = {}
    for block_name, prior in history.items():
        if block_name == WALL_BLOCK or not isinstance(prior, dict):
            continue
        for bench, walls in prior.get("wall_ms", {}).items():
            if isinstance(walls, dict) and "after" in walls:
                prior_after[bench] = walls["after"]
    for entry in entries:
        name, _, millis = entry.partition("=")
        if not millis:
            raise SystemExit(f"--append-wall expects NAME=MILLIS, got {entry!r}")
        record = wall_ms.setdefault(name, {})
        record.setdefault("before", prior_after.get(name))
        record["after"] = float(millis) if "." in millis else int(millis)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2, ensure_ascii=False)
        f.write("\n")
    print(f"appended wall clocks to {path}: history.{WALL_BLOCK}.wall_ms")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bench", required=True, help="path to the bench_hotpath binary")
    parser.add_argument("--baseline", required=True, help="committed BENCH_hotpath.json")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="advisory relative timing band (0.25 = +/-25%%)",
    )
    parser.add_argument(
        "--append-wall",
        action="append",
        default=[],
        metavar="NAME=MILLIS",
        help=f"record a measured wall clock into history.{WALL_BLOCK} "
        "of the baseline file (repeatable; rewrites the file)",
    )
    args = parser.parse_args()

    if args.append_wall:
        append_walls(args.baseline, args.append_wall)

    with open(args.baseline, encoding="utf-8") as f:
        baseline = json.load(f)["benchmarks"]

    proc = subprocess.run(
        [args.bench, "--json"], capture_output=True, text=True, check=False
    )
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        print("FAIL: benchmark exited nonzero (intra-run determinism violation?)")
        return 1
    current = json.loads(proc.stdout)["benchmarks"]

    failed = False
    for name in sorted(baseline):
        base = baseline[name]
        cur = current.get(name)
        if cur is None:
            print(f"FAIL: {name}: missing from benchmark output")
            failed = True
            continue
        if cur["iters"] != base["iters"] or cur["checksum"] != base["checksum"]:
            print(
                f"FAIL: {name}: checksum {cur['checksum']} over {cur['iters']} iters "
                f"!= committed {base['checksum']} over {base['iters']} iters "
                "(determinism regression, or the bench changed without re-baselining)"
            )
            failed = True
            continue
        base_census = base.get("shard_requests")
        cur_census = cur.get("shard_requests")
        if base_census != cur_census:
            base_len = len(base_census) if base_census is not None else 0
            cur_len = len(cur_census) if cur_census is not None else 0
            if base_len != cur_len:
                # A length change is a different failure class from a content
                # change: the number of shards is a pure function of geometry
                # and the engine's channels_per_shard, so an unknown length
                # means the shard *plan* changed, not merely the request
                # routing.
                print(
                    f"FAIL: {name}: shard_requests has {cur_len} shards, "
                    f"baseline has {base_len} (unknown census length — the "
                    "shard plan changed)"
                )
            else:
                print(
                    f"FAIL: {name}: shard_requests {cur_census} "
                    f"!= committed {base_census} "
                    "(the per-shard request census is deterministic; a change "
                    "means the partition routing changed)"
                )
            failed = True
            continue
        ratio = cur["ns_per_op"] / base["ns_per_op"]
        status = "ok"
        if ratio > 1.0 + args.tolerance:
            status = f"ADVISORY: slower than baseline (x{ratio:.2f})"
        elif ratio < 1.0 - args.tolerance:
            status = f"ADVISORY: faster than baseline (x{ratio:.2f}) — consider re-baselining"
        print(
            f"{name}: {cur['ns_per_op']:.2f} ns/op vs baseline {base['ns_per_op']:.2f} "
            f"— {status}"
        )

    for name in sorted(set(current) - set(baseline)):
        print(
            f"FAIL: {name}: not in baseline — every bench must be baselined "
            f"(add it to {args.baseline})"
        )
        failed = True

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
