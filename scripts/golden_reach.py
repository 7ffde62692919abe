#!/usr/bin/env python3
"""Report how much of src/ the goldens reach; fail when too many lines go unreached.

Usage:
  golden_reach.py BUILD_DIR

BUILD_DIR is a build configured with --coverage and atomic counters, e.g.

  cmake -B build-cov -S . -DCMAKE_BUILD_TYPE=Debug \
    "-DCMAKE_CXX_FLAGS=--coverage -fprofile-update=atomic -O1"
  cmake --build build-cov -j "$(nproc)"
  ctest --test-dir build-cov -L golden -j "$(nproc)"
  ./build-cov/tests/placement_golden_test
  python3 scripts/golden_reach.py build-cov

Golden reach is the share of instrumented src/ lines that those runs
executed: every ctest case labelled `golden` (the commands of
bench/golden.txt and the malformed-argument battery of bench/CMakeLists.txt)
plus placement_golden_test, whose per-scenario digests make it a golden too.
The script runs `gcov -j` over the .gcno files of the src/ libraries and of
the binaries bench/golden.txt runs. It walks .gcno rather than .gcda files,
so code that no golden binary runs still counts as unreached (an object that
no binary links has no .gcda at all). The objects of other binaries are
left out, test binaries and bench_hotpath (which only the battery runs)
alike: a header function that only they instantiate is not golden reach.
The src/ library lines the battery's bench_hotpath cases run still count.

It prints reach per src/ file, then every src/ function that no golden
called. A function on ALLOW_LIST is unreached by the goldens but pinned by the
test named there; the list is printed apart and gives a second figure, reach
counting the list. Exit 1 when more instrumented lines than MAX_UNREACHED go
unreached (allow-list not counted).

The goldens run worker threads (the audit's blast-radius scan, the trial
grids). Plain --coverage counters are updated without atomics, so racing
threads lose increments and gcov can derive a negative count, or a positive
one for a line that never ran; the count then differs between runs of one
build. -fprofile-update=atomic makes the counts exact, and the script refuses
a build whose counts are negative.
"""

import json
import os
import re
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

# Instrumented src/ lines no golden reaches (allow-list not counted), as
# measured with GCC 12.2 at --coverage -fprofile-update=atomic -O1: 742 of
# 5916, the same lines in three runs of one build. The gate counts lines
# rather than a ratio, because deleting reached code lowers the ratio without
# any line losing reach. Lower it when a change reaches more.
MAX_UNREACHED = 742

# Unreached by any golden command, each pinned by the named test instead.
# Keys are regular expressions matched against the demangled function name.
ALLOW_LIST = {
    # Passthrough IO (§5.1). placement_golden_test assigns a device and shuts
    # the host down; no golden has a device DMA.
    r"SilozHypervisor::DeviceDma\b": "PassthroughTest.AssignAndDmaWithinGuestRanges",
    r"Vm::AllowedHpaRanges\b": "PassthroughTest.AssignAndDmaWithinGuestRanges",
    r"SilozHypervisor::AuditDeviceIsolation\b": "PassthroughTest.IommuTablesComeFromProtectedPool",
    # §5.3: guest-reserved nodes serve only UNMEDIATED requests from
    # privileged cgroups.
    r"SilozHypervisor::(Allocate|Free)Pages\b": "HypervisorTest.AllocationPolicyEnforced",
    # RowPress: RunRowPress holds rows open through ActivatePhysHold.
    r"BlacksmithFuzzer::RunRowPress\b|Machine::ActivatePhysHold\b":
        "BlacksmithTest.RowPressProducesFlips",
    # Row-repair remap (§6): consulted only when a DIMM has repairs.
    r"RowRemapper::RepairedTo(Internal|Media)\b|::RepairKey\b":
        "RowRemapperTest.RepairRoundTripsEveryRow",
    # The audit's negative-control goldens corrupt the default platform's
    # decoder; the per-platform rotation period is used only with --platform.
    r"ShiftedJumpPeriod\b": "PlatformAuditTest.ShiftedJumpCorruptionFailsClosureOnEveryPlatform",
    # Findings print as text on every negative-control golden; only --json
    # output escapes them.
    r"audit::Finding::ToJson\b|audit::\(anonymous namespace\)::JsonEscape\b":
        "ReportTest.TextAndJsonRoundTripKeyFacts",
    # CSV rows for scripts/plot_results.py, written only under
    # $SILOZ_RESULTS_DIR.
    r"CsvReporter::|::(NeedsQuoting|Escape|JoinCsv)\(": "ReportTest.WritesHeaderOnceAndAppends",
}

# Test binaries whose runs count as golden reach.
GOLDEN_TESTS = ["placement_golden_test"]

REPO = Path(__file__).resolve().parent.parent


def golden_targets() -> list[str]:
    """The CMake targets that bench/golden.txt runs, plus GOLDEN_TESTS."""
    targets = set(GOLDEN_TESTS)
    for line in (REPO / "bench" / "golden.txt").read_text().splitlines():
        if line and not line.startswith("#"):
            # name, label, hash, the optional exit=N and model=SHA256, then
            # the target.
            targets.add(next(f for f in line.split()[3:] if "=" not in f))
    return sorted(targets)


def gcno_files(build: Path) -> list[Path]:
    """The .gcno files of the src/ libraries and of the golden binaries."""
    dirs = [build / "src"]
    for target in golden_targets():
        found = list(build.glob(f"**/CMakeFiles/{target}.dir"))
        if not found:
            sys.exit(f"golden_reach: no object directory for target {target} in {build}")
        dirs.extend(found)
    files = sorted({gcno for d in dirs for gcno in d.rglob("*.gcno")})
    if not files:
        sys.exit(f"golden_reach: no .gcno files under {build}; was it built with --coverage?")
    return files


def run_gcov(files: list[Path]) -> list[dict]:
    """One gcov JSON document per .gcno file."""
    documents = []
    with tempfile.TemporaryDirectory() as scratch:
        for gcno in files:
            # gcov writes nothing but its JSON with --stdout; the scratch cwd
            # catches anything else it might drop.
            run = subprocess.run(["gcov", "-j", "-t", str(gcno)], cwd=scratch,
                                 capture_output=True, text=True, check=False)
            if run.returncode != 0:
                sys.exit(f"golden_reach: gcov failed on {gcno}:\n{run.stderr}")
            for line in run.stdout.splitlines():
                if line.startswith("{"):
                    documents.append(json.loads(line))
    return documents


def src_path(name: str, cwd: str) -> str | None:
    """`name` relative to the repo when it lies under src/, else None."""
    path = Path(os.path.normpath(Path(cwd) / name))
    try:
        relative = path.relative_to(REPO)
    except ValueError:
        return None
    return str(relative) if relative.parts[0] == "src" else None


def collect(documents: list[dict]):
    """Merges every document: line and function counts summed over objects."""
    lines = defaultdict(int)      # (file, line) -> count
    functions = defaultdict(int)  # (file, start line, end line, name) -> count
    for document in documents:
        cwd = document.get("current_working_directory", "")
        for entry in document["files"]:
            file = src_path(entry["file"], cwd)
            if file is None:
                continue
            for line in entry["lines"]:
                lines[(file, line["line_number"])] += line["count"]
            for function in entry["functions"]:
                key = (file, function["start_line"], function["end_line"],
                       function["demangled_name"])
                functions[key] += function["execution_count"]
    return lines, functions


def allow_entry(name: str) -> str | None:
    for pattern, test in ALLOW_LIST.items():
        if re.search(pattern, name):
            return test
    return None


def main(argv: list[str]) -> int:
    if len(argv) != 2 or argv[1].startswith("-"):
        print(__doc__, file=sys.stderr)
        return 2
    lines, functions = collect(run_gcov(gcno_files(Path(argv[1]).resolve())))
    if not lines:
        sys.exit("golden_reach: gcov reported no src/ lines")
    raced = sorted(key for key, count in lines.items() if count < 0)
    if raced:
        sys.exit(f"golden_reach: negative counts at {raced[0][0]}:{raced[0][1]} and "
                 f"{len(raced) - 1} more line(s); counters raced, so rebuild with "
                 "-fprofile-update=atomic")

    per_file = defaultdict(lambda: [0, 0])  # file -> [reached, instrumented]
    for (file, _), count in lines.items():
        per_file[file][1] += 1
        per_file[file][0] += count > 0
    print(f"{'file':<44} {'reached':>9} {'lines':>6} {'reach':>7}")
    for file in sorted(per_file):
        reached, total = per_file[file]
        print(f"{file:<44} {reached:>9} {total:>6} {100.0 * reached / total:>6.1f}%")

    # A function counts as called when any object called it. The lines of an
    # allow-listed function count towards the second figure.
    uncalled = sorted(key for key, count in functions.items() if count == 0)
    listed = [(key, allow_entry(key[3])) for key in uncalled]
    print("\nsrc/ functions no golden calls:")
    for (file, start, _, name), test in listed:
        if test is None:
            print(f"  {file}:{start}  {name}")
    print("\nallow-listed (no golden calls them; the named test does):")
    allowed_lines = set()
    for (file, start, end, name), test in listed:
        if test is not None:
            print(f"  {file}:{start}  {name}  <- {test}")
            allowed_lines.update((file, line) for line in range(start, end + 1)
                                 if lines.get((file, line)) == 0)
    for pattern in ALLOW_LIST:
        if not any(re.search(pattern, key[3]) for key in uncalled):
            print(f"  (no uncalled function matches {pattern!r}; a golden reaches it now)")

    total = len(lines)
    reached = sum(count > 0 for count in lines.values())
    reach = 100.0 * reached / total
    with_list = 100.0 * (reached + len(allowed_lines)) / total
    unreached = total - reached
    print(f"\ngolden reach: {reached}/{total} src/ lines ({reach:.2f}%); "
          f"counting the allow-list: {with_list:.2f}%; "
          f"unreached {unreached}, at most {MAX_UNREACHED}")
    if unreached > MAX_UNREACHED:
        print(f"FAIL: {unreached} src/ lines unreached by the goldens, "
              f"more than {MAX_UNREACHED}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
